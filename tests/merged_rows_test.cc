// The four miners that mine the duplicate-merged weighted database
// (IsTa, LCM, FP-close, CHARM): on duplicate-heavy inputs each must emit
// the same (set, support) sequence for an input and for a row-permuted
// copy of it, agree with the others and with the oracle, and report the
// number of distinct coded rows as weighted_transactions.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/itemset.h"
#include "enumeration/charm.h"
#include "enumeration/fpclose.h"
#include "enumeration/lcm.h"
#include "ista/ista.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

using Row = std::vector<ItemId>;

struct MinedRun {
  std::vector<ClosedItemset> sequence;  // in emission order
  MinerStats stats;
};

struct Miner {
  std::string name;
  std::function<Status(const TransactionDatabase&, Support,
                       const ClosedSetCallback&, MinerStats*)>
      mine;
};

std::vector<Miner> Miners() {
  return {
      {"ista",
       [](const TransactionDatabase& db, Support smin,
          const ClosedSetCallback& cb, MinerStats* stats) {
         IstaOptions options;
         options.min_support = smin;
         return MineClosedIsta(db, options, cb, stats);
       }},
      {"lcm-1",
       [](const TransactionDatabase& db, Support smin,
          const ClosedSetCallback& cb, MinerStats* stats) {
         LcmOptions options;
         options.min_support = smin;
         return MineClosedLcm(db, options, cb, stats);
       }},
      {"lcm-4",
       [](const TransactionDatabase& db, Support smin,
          const ClosedSetCallback& cb, MinerStats* stats) {
         LcmOptions options;
         options.min_support = smin;
         options.num_threads = 4;
         return MineClosedLcm(db, options, cb, stats);
       }},
      {"fpclose",
       [](const TransactionDatabase& db, Support smin,
          const ClosedSetCallback& cb, MinerStats* stats) {
         FpCloseOptions options;
         options.min_support = smin;
         return MineClosedFpClose(db, options, cb, stats);
       }},
      {"charm",
       [](const TransactionDatabase& db, Support smin,
          const ClosedSetCallback& cb, MinerStats* stats) {
         CharmOptions options;
         options.min_support = smin;
         return MineClosedCharm(db, options, cb, stats);
       }},
  };
}

MinedRun MineWith(const Miner& miner, const TransactionDatabase& db,
                  Support smin) {
  MinedRun run;
  ClosedSetCollector collector;
  EXPECT_TRUE(miner.mine(db, smin, collector.AsCallback(), &run.stats).ok())
      << miner.name;
  run.sequence = collector.TakeSets();
  return run;
}

std::vector<ClosedItemset> Canonical(std::vector<ClosedItemset> sets) {
  std::sort(sets.begin(), sets.end(), ClosedItemsetLess);
  return sets;
}

// Rows drawn with skewed probabilities from a pool of `pool_size` random
// rows over `num_items` items: nearly every row has many copies.
TransactionDatabase DuplicateHeavy(std::size_t rows, std::size_t pool_size,
                                   std::size_t num_items,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> pool(pool_size);
  for (Row& row : pool) {
    const std::size_t size = 1 + rng.Uniform(5);
    for (std::size_t k = 0; k < size; ++k) {
      row.push_back(static_cast<ItemId>(rng.Uniform(num_items)));
    }
  }
  TransactionDatabase db;
  for (std::size_t n = 0; n < rows; ++n) {
    // min of two draws: low pool indices are far more frequent.
    const std::size_t p = std::min(rng.Uniform(pool_size),
                                   rng.Uniform(pool_size));
    db.AddTransaction(pool[p]);
  }
  db.SetNumItems(num_items);
  return db;
}

TransactionDatabase Permuted(const TransactionDatabase& db,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> order(db.NumTransactions());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.Uniform(k)]);
  }
  TransactionDatabase out;
  for (std::size_t k : order) out.AddTransaction(db.transaction(k));
  out.SetNumItems(db.NumItems());
  return out;
}

// Distinct non-empty rows once the items below `smin` are dropped: the
// rows every miner here mines.
std::size_t DistinctCodedRows(const TransactionDatabase& db, Support smin) {
  const std::vector<Support> freq = db.ItemFrequencies();
  std::set<Row> distinct;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    Row row;
    for (ItemId i : db.transaction(k)) {
      if (freq[i] >= smin) row.push_back(i);
    }
    if (!row.empty()) distinct.insert(row);
  }
  return distinct.size();
}

TEST(MergedRowsTest, PermutedInputGivesIdenticalSequences) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const TransactionDatabase db = DuplicateHeavy(600, 25, 12, seed);
    const TransactionDatabase shuffled = Permuted(db, seed + 100);
    for (Support smin : {1u, 5u, 40u}) {
      const std::size_t distinct = DistinctCodedRows(db, smin);
      ASSERT_LT(distinct, db.NumTransactions() / 10);
      std::vector<ClosedItemset> reference;
      for (const Miner& miner : Miners()) {
        SCOPED_TRACE(miner.name + " seed " + std::to_string(seed) +
                     " smin " + std::to_string(smin));
        const MinedRun original = MineWith(miner, db, smin);
        const MinedRun permuted = MineWith(miner, shuffled, smin);
        EXPECT_EQ(original.sequence, permuted.sequence);
        EXPECT_EQ(original.stats.weighted_transactions, distinct);
        EXPECT_EQ(permuted.stats.weighted_transactions, distinct);
        EXPECT_EQ(original.stats.sets_reported, original.sequence.size());
        const auto sets = Canonical(original.sequence);
        if (reference.empty()) {
          reference = sets;
          EXPECT_FALSE(reference.empty());
        } else {
          EXPECT_TRUE(SameResults(reference, sets))
              << DiffResults(reference, sets);
        }
      }
    }
  }
}

TEST(MergedRowsTest, SmallInputsMatchTheOracle) {
  for (std::uint64_t seed : {4u, 5u, 6u, 7u}) {
    const TransactionDatabase db = DuplicateHeavy(16, 5, 6, seed);
    ASSERT_LE(db.NumTransactions(), kOracleMaxTransactions);
    const TransactionDatabase shuffled = Permuted(db, seed);
    for (Support smin : {1u, 2u, 3u, 6u}) {
      const auto oracle = OracleClosedSets(db, smin);
      ASSERT_TRUE(oracle.ok());
      for (const Miner& miner : Miners()) {
        SCOPED_TRACE(miner.name + " seed " + std::to_string(seed) +
                     " smin " + std::to_string(smin));
        const MinedRun original = MineWith(miner, db, smin);
        const MinedRun permuted = MineWith(miner, shuffled, smin);
        EXPECT_EQ(original.sequence, permuted.sequence);
        const auto sets = Canonical(original.sequence);
        EXPECT_TRUE(SameResults(oracle.value(), sets))
            << DiffResults(oracle.value(), sets);
        EXPECT_EQ(original.stats.weighted_transactions,
                  DistinctCodedRows(db, smin));
      }
    }
  }
}

}  // namespace
}  // namespace fim

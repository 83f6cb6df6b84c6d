// Dedicated LCM tests: database reduction merges identical rows into
// weighted transactions, so inputs heavy in duplicates (all rows equal,
// smin on a merged weight, smin = n) and wide inputs (far more items
// than rows) must still match CHARM and the subset-intersection oracle
// exactly.

#include <gtest/gtest.h>

#include <vector>

#include "data/generators.h"
#include "data/profiles.h"
#include "enumeration/charm.h"
#include "enumeration/lcm.h"
#include "verify/closedness.h"
#include "verify/compare.h"
#include "verify/oracle.h"
#include "test_rows.h"

namespace fim {
namespace {

std::vector<ClosedItemset> MineLcm(const TransactionDatabase& db,
                                   Support smin, MinerStats* stats = nullptr) {
  LcmOptions options;
  options.min_support = smin;
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosedLcm(db, options, collector.AsCallback(), stats).ok());
  collector.SortCanonical();
  return collector.TakeSets();
}

std::vector<ClosedItemset> MineCharm(const TransactionDatabase& db,
                                     Support smin) {
  CharmOptions options;
  options.min_support = smin;
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosedCharm(db, options, collector.AsCallback()).ok());
  collector.SortCanonical();
  return collector.TakeSets();
}

// LCM against CHARM and the soundness check, plus the oracle when the
// input is small enough for it.
void ExpectAgrees(const TransactionDatabase& db, Support smin) {
  const auto lcm = MineLcm(db, smin);
  const auto charm = MineCharm(db, smin);
  EXPECT_TRUE(SameResults(charm, lcm))
      << "smin " << smin << "\n" << DiffResults(charm, lcm);
  const Status sound = VerifyClosedSets(db, lcm, smin);
  EXPECT_TRUE(sound.ok()) << "smin " << smin << ": " << sound.ToString();
  if (db.NumTransactions() <= kOracleMaxTransactions) {
    const auto oracle = OracleClosedSets(db, smin);
    ASSERT_TRUE(oracle.ok());
    EXPECT_TRUE(SameResults(oracle.value(), lcm))
        << "smin " << smin << "\n" << DiffResults(oracle.value(), lcm);
  }
}

TransactionDatabase Repeat(const std::vector<std::vector<ItemId>>& groups,
                           const std::vector<std::size_t>& copies) {
  TransactionDatabase db;
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    // Interleave the copies so identical rows are never adjacent in the
    // input: the reduction must find them by sorting.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (round < copies[g]) {
        db.AddTransaction(groups[g]);
        any = true;
      }
    }
    if (!any) break;
  }
  return db;
}

TEST(LcmTest, AllRowsIdentical) {
  const TransactionDatabase db = Repeat({{1, 3, 5}}, {16});
  for (Support smin : {1u, 15u, 16u}) {
    ExpectAgrees(db, smin);
    const auto sets = MineLcm(db, smin);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0].items, (std::vector<ItemId>{1, 3, 5}));
    EXPECT_EQ(sets[0].support, 16u);
  }
  EXPECT_TRUE(MineLcm(db, 17).empty());
  // A large all-identical input merges into a single weighted row.
  MinerStats stats;
  const auto sets = MineLcm(Repeat({{0, 2}}, {5000}), 4000, &stats);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].support, 5000u);
  EXPECT_EQ(stats.weighted_transactions, 1u);
}

TEST(LcmTest, MinSupportExactlyOnMergedWeights) {
  // Merged weights 7, 5, 3, 1; smin lands exactly on each of them and
  // one past it.
  const std::vector<std::vector<ItemId>> groups = {
      {0, 1, 2}, {0, 1}, {1, 2, 3}, {3, 4}};
  const std::vector<std::size_t> copies = {7, 5, 3, 1};
  const TransactionDatabase db = Repeat(groups, copies);
  MinerStats stats;
  MineLcm(db, 1, &stats);
  EXPECT_EQ(stats.weighted_transactions, groups.size());
  for (Support smin : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 13u}) {
    ExpectAgrees(db, smin);
  }
}

TEST(LcmTest, MinSupportEqualsTransactionCount) {
  const TransactionDatabase db =
      Repeat({{2, 4, 6, 8}, {2, 4, 6}, {2, 4}, {4, 9}}, {4, 4, 3, 2});
  const auto n = static_cast<Support>(db.NumTransactions());
  ExpectAgrees(db, n);
  const auto sets = MineLcm(db, n);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].items, (std::vector<ItemId>{4}));
  EXPECT_EQ(sets[0].support, n);
}

TEST(LcmTest, DuplicateHeavyRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    // Few distinct rows over few items, each repeated: many merges.
    const TransactionDatabase base =
        GenerateRandomDense(12, 6, 0.5, seed * 131);
    const std::vector<std::vector<ItemId>> groups = RowsOf(base);
    std::vector<std::size_t> copies;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      copies.push_back(1 + (seed + g) % 5);
    }
    const TransactionDatabase db = Repeat(groups, copies);
    for (Support smin : {1u, 3u, 5u, 9u}) ExpectAgrees(db, smin);
  }
}

TEST(LcmTest, WideInputManyMoreItemsThanRows) {
  const TransactionDatabase yeast = MakeYeastLike(0.05, 3);
  ASSERT_GT(yeast.NumItems(), 2 * yeast.NumTransactions());
  // The first 16 conditions: hundreds of items over oracle-sized rows.
  TransactionDatabase slice;
  slice.SetNumItems(yeast.NumItems());
  for (Tid t = 0; t < kOracleMaxTransactions; ++t) {
    slice.AddTransaction(yeast.transaction(t));
  }
  for (Support smin : {1u, 2u, 4u}) ExpectAgrees(slice, smin);
  for (Support smin : {8u, 20u}) ExpectAgrees(yeast, smin);
}

}  // namespace
}  // namespace fim

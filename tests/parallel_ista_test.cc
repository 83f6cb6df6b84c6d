// IsTa is one sequential pass: a thread count must never change its
// output (including order), with and without duplicate merging, item
// elimination and threshold pruning. The case at the end covers the
// weighted addition that duplicate merging relies on.

#include <gtest/gtest.h>

#include <map>

#include "api/miner.h"
#include "data/generators.h"
#include "data/profiles.h"
#include "ista/ista.h"
#include "ista/prefix_tree.h"
#include "verify/compare.h"

namespace fim {
namespace {

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db,
                                    const IstaOptions& options,
                                    IstaStats* stats = nullptr) {
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosedIsta(db, options, collector.AsCallback(), stats).ok());
  return collector.TakeSets();  // NOT canonicalized: order matters here
}

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db,
                                    const MinerOptions& options,
                                    MinerStats* stats = nullptr) {
  ClosedSetCollector collector;
  EXPECT_TRUE(MineClosed(db, options, collector.AsCallback(), stats).ok());
  return collector.TakeSets();  // NOT canonicalized: order matters here
}

std::vector<ClosedItemset> MineWith(const TransactionDatabase& db, Support smin,
                                    unsigned threads) {
  MinerOptions options;
  options.algorithm = Algorithm::kIsta;
  options.min_support = smin;
  options.num_threads = threads;
  return MineWith(db, options);
}

// 766 closed sets, on which CHARM agrees; four threads must report the
// same sequence. A transaction-sharded IsTa that reduced its pruned
// repositories with a max-plus merge got 767 here.
TEST(ParallelIstaTest, FourThreadsMatchOneThreadAndCharmOnYeastLike) {
  const TransactionDatabase db = MakeYeastLike(0.2, 1);
  const auto sequential = MineWith(db, 25, 1);
  EXPECT_EQ(sequential.size(), 766u);
  const auto parallel = MineWith(db, 25, 4);
  ASSERT_EQ(parallel.size(), sequential.size());
  EXPECT_TRUE(parallel == sequential);

  MinerOptions charm;
  charm.algorithm = Algorithm::kCharm;
  charm.min_support = 25;
  auto reference = MineClosedCollect(db, charm);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(SameResults(sequential, reference.value()));
}

TEST(ParallelIstaTest, IdenticalOutputAndOrderOnRandomData) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(24, 12, 0.4, seed * 757);
    for (Support smin : {1u, 2u, 4u}) {
      const auto sequential = MineWith(db, smin, 1);
      for (unsigned threads : {2u, 3u, 4u, 8u}) {
        const auto parallel = MineWith(db, smin, threads);
        ASSERT_EQ(sequential, parallel)
            << "seed " << seed << " smin " << smin << " threads " << threads;
      }
    }
  }
}

TEST(ParallelIstaTest, IdenticalOnMarketBasketData) {
  MarketBasketConfig config;
  config.num_items = 60;
  config.num_transactions = 2000;
  config.avg_transaction_size = 6.0;
  config.num_patterns = 12;
  config.seed = 11;
  const TransactionDatabase db = GenerateMarketBasket(config);
  for (Support smin : {5u, 40u}) {
    const auto sequential = MineWith(db, smin, 1);
    MinerOptions options;
    options.algorithm = Algorithm::kIsta;
    options.min_support = smin;
    for (unsigned threads : {2u, 4u}) {
      options.num_threads = threads;
      MinerStats stats;
      const auto parallel = MineWith(db, options, &stats);
      ASSERT_EQ(sequential, parallel) << "smin " << smin << " threads "
                                      << threads;
    }
  }
}

TEST(ParallelIstaTest, IdenticalOnStructuredProfiles) {
  {
    const TransactionDatabase db = MakeYeastLike(0.05, 42);
    const auto sequential = MineWith(db, 12, 1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, MineWith(db, 12, 4));
  }
  {
    const TransactionDatabase db = MakeWebviewLike(0.1, 45);
    const auto sequential = MineWith(db, 8, 1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(sequential, MineWith(db, 8, 4));
  }
}

TEST(ParallelIstaTest, IdenticalWithoutItemElimination) {
  const TransactionDatabase db = GenerateRandomDense(30, 10, 0.5, 99);
  MinerOptions options;
  options.algorithm = Algorithm::kIsta;
  options.min_support = 3;
  options.item_elimination = false;
  const auto sequential = MineWith(db, options);
  options.num_threads = 4;
  EXPECT_EQ(sequential, MineWith(db, options));
}

TEST(ParallelIstaTest, IdenticalWithoutDuplicateMerging) {
  // Duplicate-heavy input: without dedup every copy is added separately.
  std::vector<std::vector<ItemId>> rows;
  for (int copy = 0; copy < 7; ++copy) rows.push_back({0, 1, 2});
  for (int copy = 0; copy < 5; ++copy) rows.push_back({1, 2, 3});
  rows.push_back({0, 3});
  const TransactionDatabase db = TransactionDatabase::FromTransactions(rows);
  IstaOptions options;
  options.min_support = 2;
  const auto merged = MineWith(db, options);
  ASSERT_FALSE(merged.empty());
  options.merge_duplicate_transactions = false;
  EXPECT_EQ(merged, MineWith(db, options));
  EXPECT_EQ(merged, MineWith(db, 2, 4));
}

TEST(ParallelIstaTest, MidMergePruningKeepsOutputExact) {
  // A tiny prune threshold forces many threshold prunes; the output must
  // not change at any thread count.
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 1500;
  config.avg_transaction_size = 5.0;
  config.num_patterns = 8;
  config.seed = 23;
  const TransactionDatabase db = GenerateMarketBasket(config);
  IstaOptions options;
  options.min_support = 30;
  const auto sequential = MineWith(db, options);
  options.prune_node_threshold = 16;
  IstaStats stats;
  ASSERT_EQ(sequential, MineWith(db, options, &stats));
  EXPECT_GT(stats.prune_calls, 0u);
  EXPECT_EQ(sequential, MineWith(db, 30, 4));
}

TEST(ParallelIstaTest, MoreThreadsThanTransactions) {
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}, {0, 1}, {2}});
  EXPECT_EQ(MineWith(db, 1, 1), MineWith(db, 1, 16));
}

TEST(ParallelIstaTest, EdgeCases) {
  EXPECT_TRUE(MineWith(TransactionDatabase(), 1, 4).empty());
  const TransactionDatabase single =
      TransactionDatabase::FromTransactions({{3, 5, 7}});
  const auto result = MineWith(single, 1, 8);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].items, (std::vector<ItemId>{3, 5, 7}));
  EXPECT_EQ(result[0].support, 1u);
}

// --- weighted additions ----------------------------------------------

std::map<std::vector<ItemId>, Support> Collect(const IstaPrefixTree& tree,
                                               Support min_support) {
  std::map<std::vector<ItemId>, Support> out;
  tree.Report(min_support,
              [&out](std::span<const ItemId> items, Support support) {
                out.emplace(std::vector<ItemId>(items.begin(), items.end()),
                            support);
              });
  return out;
}

TEST(IstaMergeTest, WeightedAdditionEqualsRepeatedAddition) {
  IstaPrefixTree repeated(5);
  IstaPrefixTree weighted(5);
  const std::vector<std::vector<ItemId>> rows = {{0, 1, 2}, {1, 2, 4}, {2, 3}};
  const std::vector<Support> weights = {3, 1, 5};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (Support w = 0; w < weights[r]; ++w) repeated.AddTransaction(rows[r]);
    weighted.AddTransaction(rows[r], weights[r]);
  }
  EXPECT_TRUE(repeated.ValidateInvariants().ok());
  EXPECT_TRUE(weighted.ValidateInvariants().ok());
  EXPECT_EQ(weighted.TotalWeight(), 9u);
  EXPECT_EQ(Collect(repeated, 1), Collect(weighted, 1));
}

}  // namespace
}  // namespace fim

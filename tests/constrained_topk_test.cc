// Tests of constrained closed-set mining and top-k mining.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/constrained.h"
#include "api/topk.h"
#include "data/generators.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

// Reference for constraints: oracle over the reduced database (forbidden
// items deleted), filtered to sets containing all required items.
std::vector<ClosedItemset> ConstrainedOracle(
    const TransactionDatabase& db, Support smin,
    const ItemConstraints& constraints) {
  TransactionDatabase reduced;
  reduced.SetNumItems(db.NumItems());
  std::vector<ItemId> forbidden = constraints.must_not_contain;
  NormalizeItems(&forbidden);
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    std::vector<ItemId> kept;
    for (ItemId i : db.transaction(k)) {
      if (!std::binary_search(forbidden.begin(), forbidden.end(), i)) {
        kept.push_back(i);
      }
    }
    reduced.AddTransaction(kept);
  }
  auto all = OracleClosedSets(reduced, smin);
  EXPECT_TRUE(all.ok());
  std::vector<ItemId> required = constraints.must_contain;
  NormalizeItems(&required);
  std::vector<ClosedItemset> out;
  for (auto& set : all.value()) {
    if (IsSubsetSorted(required, set.items)) out.push_back(std::move(set));
  }
  return out;
}

TEST(ConstrainedTest, MatchesOracleOnRandomDatabases) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(10, 8, 0.5, seed * 271);
    for (Support smin : {1u, 2u, 3u}) {
      const ItemConstraints cases[] = {
          {{}, {}},
          {{0}, {}},
          {{0, 3}, {}},
          {{}, {1}},
          {{}, {1, 5}},
          {{2}, {4, 6}},
      };
      for (const auto& constraints : cases) {
        MinerOptions options;
        options.min_support = smin;
        auto mined = MineClosedConstrainedCollect(db, options, constraints);
        ASSERT_TRUE(mined.ok());
        const auto expected = ConstrainedOracle(db, smin, constraints);
        EXPECT_TRUE(SameResults(expected, mined.value()))
            << "seed " << seed << " smin " << smin << " required "
            << ItemsToString(constraints.must_contain) << " forbidden "
            << ItemsToString(constraints.must_not_contain) << "\n"
            << DiffResults(expected, mined.value());
      }
    }
  }
}

TEST(ConstrainedTest, OverlappingConstraintsRejected) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions({{0}});
  MinerOptions options;
  ItemConstraints constraints;
  constraints.must_contain = {1};
  constraints.must_not_contain = {1};
  auto result = MineClosedConstrainedCollect(db, options, constraints);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstrainedTest, RequiredItemsAlwaysPresent) {
  const TransactionDatabase db = GenerateRandomDense(12, 8, 0.5, 33);
  MinerOptions options;
  options.min_support = 2;
  ItemConstraints constraints;
  constraints.must_contain = {1, 4};
  auto mined = MineClosedConstrainedCollect(db, options, constraints);
  ASSERT_TRUE(mined.ok());
  for (const auto& set : mined.value()) {
    EXPECT_TRUE(IsSubsetSorted(constraints.must_contain, set.items));
  }
}

TEST(ConstrainedTest, ForbiddenItemsNeverPresent) {
  const TransactionDatabase db = GenerateRandomDense(12, 8, 0.5, 34);
  MinerOptions options;
  options.min_support = 1;
  ItemConstraints constraints;
  constraints.must_not_contain = {0, 7};
  auto mined = MineClosedConstrainedCollect(db, options, constraints);
  ASSERT_TRUE(mined.ok());
  for (const auto& set : mined.value()) {
    EXPECT_TRUE(IntersectSorted(set.items, constraints.must_not_contain)
                    .empty());
  }
}

TEST(TopKTest, ReturnsHighestSupportSets) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const TransactionDatabase db =
        GenerateRandomDense(12, 8, 0.5, seed * 41);
    auto all = OracleClosedSets(db, 1);
    ASSERT_TRUE(all.ok());
    std::vector<Support> supports;
    for (const auto& set : all.value()) supports.push_back(set.support);
    std::sort(supports.rbegin(), supports.rend());

    for (std::size_t k : {1u, 3u, 7u}) {
      auto top = MineTopKClosed(db, k);
      ASSERT_TRUE(top.ok());
      const auto& sets = top.value();
      if (supports.size() <= k) {
        EXPECT_EQ(sets.size(), supports.size());
        continue;
      }
      ASSERT_GE(sets.size(), k);
      // The returned supports are exactly the k highest (with ties).
      const Support cutoff = supports[k - 1];
      for (std::size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(sets[i].support, supports[i]) << "seed " << seed;
      }
      EXPECT_EQ(sets.back().support, cutoff);
      // Nothing tied with the cutoff was dropped.
      const std::size_t tied_expected = static_cast<std::size_t>(
          std::count(supports.begin(), supports.end(), cutoff));
      const std::size_t tied_returned = static_cast<std::size_t>(
          std::count_if(sets.begin(), sets.end(),
                        [cutoff](const ClosedItemset& s) {
                          return s.support == cutoff;
                        }));
      EXPECT_EQ(tied_returned, tied_expected);
    }
  }
}

TEST(TopKTest, EdgeCases) {
  EXPECT_TRUE(MineTopKClosed(TransactionDatabase(), 5).value().empty());
  const TransactionDatabase db =
      TransactionDatabase::FromTransactions({{0, 1}});
  EXPECT_TRUE(MineTopKClosed(db, 0).value().empty());
  auto one = MineTopKClosed(db, 10);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), 1u);  // only one closed set exists
}

}  // namespace
}  // namespace fim

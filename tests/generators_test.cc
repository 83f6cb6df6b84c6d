// Tests of the synthetic data generators, the expression discretizer, and
// the dataset profiles (shape checks against DESIGN.md).

#include <gtest/gtest.h>

#include "data/expression.h"
#include "data/generators.h"
#include "data/profiles.h"
#include "data/stats.h"
#include "test_rows.h"

namespace fim {
namespace {

TEST(GeneratorsTest, MarketBasketIsDeterministicPerSeed) {
  MarketBasketConfig config;
  config.num_items = 50;
  config.num_transactions = 200;
  config.seed = 5;
  const TransactionDatabase a = GenerateMarketBasket(config);
  const TransactionDatabase b = GenerateMarketBasket(config);
  EXPECT_EQ(RowsOf(a), RowsOf(b));
  config.seed = 6;
  const TransactionDatabase c = GenerateMarketBasket(config);
  EXPECT_NE(RowsOf(a), RowsOf(c));
}

TEST(GeneratorsTest, MarketBasketHasRequestedShape) {
  MarketBasketConfig config;
  config.num_items = 100;
  config.num_transactions = 1000;
  config.avg_transaction_size = 8.0;
  config.seed = 11;
  const TransactionDatabase db = GenerateMarketBasket(config);
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_EQ(stats.num_items, 100u);
  EXPECT_GE(stats.num_transactions, 990u);  // empty transactions dropped
  EXPECT_GT(stats.avg_transaction_size, 4.0);
  EXPECT_LT(stats.avg_transaction_size, 16.0);
}

TEST(GeneratorsTest, RandomDenseMatchesDensity) {
  const TransactionDatabase db = GenerateRandomDense(200, 50, 0.3, 21);
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_NEAR(stats.density, 0.3, 0.05);
}

TEST(GeneratorsTest, SparseBinaryDeterministicAndShaped) {
  SparseBinaryConfig config;
  config.num_records = 32;
  config.num_features = 2000;
  config.seed = 3;
  const TransactionDatabase a = GenerateSparseBinary(config);
  const TransactionDatabase b = GenerateSparseBinary(config);
  EXPECT_EQ(RowsOf(a), RowsOf(b));
  EXPECT_EQ(a.NumItems(), 2000u);
  EXPECT_EQ(a.NumTransactions(), 32u);
}

TEST(ExpressionTest, DiscretizerUsesThresholds) {
  ExpressionMatrix m(2, 3);
  m.at(0, 0) = 0.5;    // over  -> item 0 (cond 0 up) in gene row 0
  m.at(0, 1) = -0.5;   // under -> item 3 (cond 1 down)
  m.at(0, 2) = 0.1;    // neither
  m.at(1, 0) = 0.21;   // over
  m.at(1, 1) = -0.19;  // neither (just inside)
  m.at(1, 2) = -0.21;  // under

  const TransactionDatabase genes =
      Discretize(m, ExpressionOrientation::kGenesAsTransactions);
  ASSERT_EQ(genes.NumTransactions(), 2u);
  EXPECT_EQ(RowOf(genes, 0), (std::vector<ItemId>{0, 3}));
  EXPECT_EQ(RowOf(genes, 1), (std::vector<ItemId>{0, 5}));
  EXPECT_EQ(genes.NumItems(), 6u);

  const TransactionDatabase conditions =
      Discretize(m, ExpressionOrientation::kConditionsAsTransactions);
  // Condition 0: gene0 over (item 0), gene1 over (item 2).
  ASSERT_EQ(conditions.NumTransactions(), 3u);
  EXPECT_EQ(RowOf(conditions, 0), (std::vector<ItemId>{0, 2}));
  // Condition 1: gene0 under (item 1).
  EXPECT_EQ(RowOf(conditions, 1), (std::vector<ItemId>{1}));
  // Condition 2: gene1 under (item 3).
  EXPECT_EQ(RowOf(conditions, 2), (std::vector<ItemId>{3}));
}

TEST(ExpressionTest, CustomThresholdsRespected) {
  ExpressionMatrix m(1, 1);
  m.at(0, 0) = 0.3;
  const TransactionDatabase loose = Discretize(
      m, ExpressionOrientation::kGenesAsTransactions, 0.2, -0.2);
  EXPECT_EQ(loose.NumTransactions(), 1u);
  const TransactionDatabase strict = Discretize(
      m, ExpressionOrientation::kGenesAsTransactions, 0.5, -0.5);
  EXPECT_EQ(strict.NumTransactions(), 0u);  // empty transactions dropped
}

TEST(ExpressionTest, ModulesCreateCoExpression) {
  ExpressionConfig config;
  config.num_genes = 200;
  config.num_conditions = 40;
  config.num_modules = 4;
  config.genes_per_module = 40;
  config.conditions_per_module = 10;
  config.module_signal = 0.8;
  config.noise_stddev = 0.05;
  config.seed = 17;
  const ExpressionMatrix m = GenerateExpression(config);
  const TransactionDatabase db =
      Discretize(m, ExpressionOrientation::kConditionsAsTransactions);
  // With low noise almost all items come from modules, so the database
  // must contain items supported by ~10 conditions.
  const auto freq = db.ItemFrequencies();
  Support max_freq = 0;
  for (Support f : freq) max_freq = std::max(max_freq, f);
  EXPECT_GE(max_freq, 8u);
}

TEST(ProfilesTest, YeastShape) {
  const TransactionDatabase db = MakeYeastLike(0.05, 42);
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_EQ(stats.num_transactions, 300u);  // conditions
  EXPECT_GT(stats.num_items, 300u);         // many more items than tx
}

TEST(ProfilesTest, Ncbi60Shape) {
  const TransactionDatabase db = MakeNcbi60Like(0.1, 43);
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_EQ(stats.num_transactions, 64u);
  EXPECT_GT(stats.density, 0.3);  // very dense data
}

TEST(ProfilesTest, ThrombinShape) {
  const TransactionDatabase db = MakeThrombinLike(0.02, 44);
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_EQ(stats.num_transactions, 64u);
  EXPECT_LT(stats.density, 0.35);  // sparse binary features
}

TEST(ProfilesTest, WebviewShape) {
  const TransactionDatabase db = MakeWebviewLike(0.02, 45);
  const DatabaseStats stats = ComputeStats(db);
  // Transposed: at most 497 transactions (one per original item).
  EXPECT_LE(stats.num_transactions, 497u);
  EXPECT_GT(stats.num_transactions, 300u);
  EXPECT_GT(stats.num_items, stats.num_transactions);
}

TEST(ProfilesTest, ProfilesDeterministicPerSeed) {
  EXPECT_EQ(RowsOf(MakeYeastLike(0.02, 1)),
            RowsOf(MakeYeastLike(0.02, 1)));
  EXPECT_NE(RowsOf(MakeYeastLike(0.02, 1)),
            RowsOf(MakeYeastLike(0.02, 2)));
}


TEST(QuantileDiscretizeTest, TailFractionBounds) {
  ExpressionMatrix m(2, 2);
  EXPECT_FALSE(DiscretizeQuantile(
                   m, ExpressionOrientation::kGenesAsTransactions, 0.0)
                   .ok());
  EXPECT_FALSE(DiscretizeQuantile(
                   m, ExpressionOrientation::kGenesAsTransactions, 0.5)
                   .ok());
  // 4 values with 10% tail -> tail = 0 entries: rejected.
  EXPECT_FALSE(DiscretizeQuantile(
                   m, ExpressionOrientation::kGenesAsTransactions, 0.1)
                   .ok());
}

TEST(QuantileDiscretizeTest, TailsBecomeItems) {
  // 10 distinct values; 20% tails cut off the 2 lowest / 2 highest.
  ExpressionMatrix m(2, 5);
  double v = 0.0;
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t c = 0; c < 5; ++c) {
      m.at(g, c) = v;
      v += 1.0;  // values 0..9
    }
  }
  auto result = DiscretizeQuantile(
      m, ExpressionOrientation::kGenesAsTransactions, 0.2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TransactionDatabase& db = result.value();
  // Gene 0 holds 0..4: values 0,1 under-expressed (below values[2]=2).
  // Gene 1 holds 5..9: values 8,9 over-expressed (above values[7]=7).
  ASSERT_EQ(db.NumTransactions(), 2u);
  EXPECT_EQ(RowOf(db, 0), (std::vector<ItemId>{1, 3}));   // c0,c1 down
  EXPECT_EQ(RowOf(db, 1), (std::vector<ItemId>{6, 8}));   // c3,c4 up
}

TEST(QuantileDiscretizeTest, FractionRoughlyRespectedOnRandomData) {
  ExpressionConfig config;
  config.num_genes = 100;
  config.num_conditions = 40;
  config.num_modules = 0;
  config.noise_stddev = 1.0;
  config.seed = 5;
  const ExpressionMatrix m = GenerateExpression(config);
  auto result = DiscretizeQuantile(
      m, ExpressionOrientation::kGenesAsTransactions, 0.1);
  ASSERT_TRUE(result.ok());
  const double occupancy =
      static_cast<double>(result.value().TotalItemOccurrences()) /
      static_cast<double>(100 * 40);
  EXPECT_NEAR(occupancy, 0.2, 0.02);  // two 10% tails
}
}  // namespace
}  // namespace fim

// Unit tests of the data layer: item set utilities, TransactionDatabase,
// FIMI IO, and database statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "data/fimi_io.h"
#include "data/itemset.h"
#include "data/stats.h"
#include "data/transaction_database.h"
#include "test_rows.h"

namespace fim {
namespace {

TEST(ItemsetTest, NormalizeSortsAndDeduplicates) {
  std::vector<ItemId> v = {5, 1, 3, 1, 5, 5};
  NormalizeItems(&v);
  EXPECT_EQ(v, (std::vector<ItemId>{1, 3, 5}));
}

TEST(ItemsetTest, IntersectSorted) {
  std::vector<ItemId> a = {1, 3, 5, 7};
  std::vector<ItemId> b = {2, 3, 5, 8};
  EXPECT_EQ(IntersectSorted(a, b), (std::vector<ItemId>{3, 5}));
  EXPECT_TRUE(IntersectSorted(a, std::vector<ItemId>{}).empty());
}

TEST(ItemsetTest, IsSubsetSorted) {
  std::vector<ItemId> a = {3, 5};
  std::vector<ItemId> b = {1, 3, 5, 7};
  EXPECT_TRUE(IsSubsetSorted(a, b));
  EXPECT_FALSE(IsSubsetSorted(b, a));
  EXPECT_TRUE(IsSubsetSorted(std::vector<ItemId>{}, a));
  EXPECT_TRUE(IsSubsetSorted(a, a));
  EXPECT_FALSE(IsSubsetSorted(std::vector<ItemId>{4}, b));
}

TEST(ItemsetTest, ItemsToString) {
  EXPECT_EQ(ItemsToString(std::vector<ItemId>{}), "{}");
  EXPECT_EQ(ItemsToString(std::vector<ItemId>{1, 4, 7}), "{1, 4, 7}");
}

TEST(ItemsetTest, CollectorGathersAndSorts) {
  ClosedSetCollector collector;
  auto cb = collector.AsCallback();
  const std::vector<ItemId> s1 = {2, 3};
  const std::vector<ItemId> s2 = {1};
  cb(s1, 4);
  cb(s2, 7);
  collector.SortCanonical();
  ASSERT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.sets()[0].items, s2);
  EXPECT_EQ(collector.sets()[1].items, s1);
}

TEST(TransactionDatabaseTest, NormalizesAndDropsEmpty) {
  TransactionDatabase db;
  db.AddTransaction(std::vector<ItemId>{3, 1, 3});
  db.AddTransaction({});  // dropped
  db.AddTransaction(std::vector<ItemId>{0});
  EXPECT_EQ(db.NumTransactions(), 2u);
  EXPECT_EQ(RowOf(db, 0), (std::vector<ItemId>{1, 3}));
  EXPECT_EQ(db.NumItems(), 4u);
  EXPECT_EQ(db.TotalItemOccurrences(), 3u);
}

TEST(TransactionDatabaseTest, AppendsItsOwnRows) {
  // A row of the database is a span into the items array that
  // AddTransaction grows; every reallocation on the way must leave the
  // copy intact. `model` holds the same rows as plain vectors.
  std::vector<std::vector<ItemId>> model = {std::vector<ItemId>(100)};
  std::iota(model[0].begin(), model[0].end(), ItemId{0});
  TransactionDatabase db;
  db.AddTransaction(model[0]);
  db.AddTransaction(db.transaction(0).subspan(10, 5));
  model.emplace_back(model[0].begin() + 10, model[0].begin() + 15);
  for (std::size_t k = 0; k < 300; ++k) {
    const std::size_t source = (k * 7) % db.NumTransactions();
    db.AddTransaction(db.transaction(source));
    model.push_back(model[source]);
  }
  EXPECT_EQ(RowsOf(db), model);
  EXPECT_EQ(db.NumItems(), 100u);
}

TEST(TransactionDatabaseTest, AppendCopiesEveryRow) {
  TransactionDatabase a =
      TransactionDatabase::FromTransactions({{0, 1}, {2}});
  const TransactionDatabase b =
      TransactionDatabase::FromTransactions({{3, 9}, {1}});
  a.Append(b);
  EXPECT_EQ(RowsOf(a),
            (std::vector<std::vector<ItemId>>{{0, 1}, {2}, {3, 9}, {1}}));
  EXPECT_EQ(a.NumItems(), 10u);
  EXPECT_EQ(a.TotalItemOccurrences(), 6u);
}

TEST(TransactionDatabaseTest, SetNumItemsNeverShrinks) {
  TransactionDatabase db;
  db.AddTransaction(std::vector<ItemId>{9});
  db.SetNumItems(3);
  EXPECT_EQ(db.NumItems(), 10u);
  db.SetNumItems(20);
  EXPECT_EQ(db.NumItems(), 20u);
}

TEST(TransactionDatabaseTest, ItemNames) {
  TransactionDatabase db;
  db.AddTransaction(std::vector<ItemId>{0, 1});
  EXPECT_FALSE(db.SetItemNames({"only-one"}).ok());
  ASSERT_TRUE(db.SetItemNames({"alpha", "beta"}).ok());
  EXPECT_EQ(db.ItemName(0), "alpha");
  EXPECT_EQ(db.ItemName(5), "5");  // out of range falls back to the id
}

TEST(TransactionDatabaseTest, FrequenciesAndVertical) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {1, 2}, {1}});
  EXPECT_EQ(db.ItemFrequencies(), (std::vector<Support>{1, 3, 1}));
  const auto vertical = db.BuildVertical();
  ASSERT_EQ(vertical.size(), 3u);
  EXPECT_EQ(vertical[1], (std::vector<Tid>{0, 1, 2}));
  EXPECT_EQ(vertical[2], (std::vector<Tid>{1}));
}

TEST(TransactionDatabaseTest, CountSupport) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {0, 2}, {1, 2}});
  EXPECT_EQ(db.CountSupport(std::vector<ItemId>{2}), 3u);
  EXPECT_EQ(db.CountSupport(std::vector<ItemId>{0, 2}), 2u);
  EXPECT_EQ(db.CountSupport(std::vector<ItemId>{0, 1, 2}), 1u);
  EXPECT_EQ(db.CountSupport(std::vector<ItemId>{}), 3u);
}

TEST(FimiIoTest, ParseBasic) {
  auto result = ParseFimi("1 2 3\n\n# comment\n7 5\n");
  ASSERT_TRUE(result.ok());
  const auto& db = result.value();
  EXPECT_EQ(db.NumTransactions(), 2u);
  EXPECT_EQ(RowOf(db, 1), (std::vector<ItemId>{5, 7}));
  EXPECT_EQ(db.NumItems(), 8u);
}

TEST(FimiIoTest, ParseRejectsGarbage) {
  auto result = ParseFimi("1 2\n3 x 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(FimiIoTest, ParseHandlesMissingTrailingNewline) {
  auto result = ParseFimi("4 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumTransactions(), 1u);
  EXPECT_EQ(RowOf(result.value(), 0), (std::vector<ItemId>{2, 4}));
}

TEST(FimiIoTest, RoundTripThroughFile) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 5, 9}, {2}, {1, 2, 3, 4}});
  const std::string path = ::testing::TempDir() + "/fimi_roundtrip.txt";
  ASSERT_TRUE(WriteFimiFile(db, path).ok());
  auto back = ReadFimiFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(RowsOf(back.value()), RowsOf(db));
}

TEST(FimiIoTest, ReadMissingFileFails) {
  auto result = ReadFimiFile("/nonexistent/really/not/here.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FimiIoTest, ReadDirectoryFails) {
  auto result = ReadFimiFile(::testing::TempDir());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// --- ParseFimi against the line parser it replaced ----------------------

// What the oracle makes of a text: the rows (normalized, empty ones
// dropped) and item base, or the error message.
struct OracleResult {
  bool ok = true;
  std::string error;
  std::vector<std::vector<ItemId>> rows;
  std::size_t num_items = 0;
};

// The FIMI line parser as it was before ids went straight into the
// database: one line at a time into a vector, classified by <cctype>.
bool OracleParseLine(std::string_view line, std::vector<ItemId>* items,
                     std::string* error) {
  items->clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size()) break;
    if (!std::isdigit(static_cast<unsigned char>(line[pos]))) {
      *error = "unexpected character '" + std::string(1, line[pos]) + "'";
      return false;
    }
    uint64_t value = 0;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
      value = value * 10 + static_cast<uint64_t>(line[pos] - '0');
      if (value > kInvalidItem - 1) {
        *error = "item id out of range";
        return false;
      }
      ++pos;
    }
    items->push_back(static_cast<ItemId>(value));
  }
  return true;
}

OracleResult OracleParseFimi(std::string_view text) {
  OracleResult out;
  std::vector<ItemId> items;
  std::string error;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    ++line_no;
    start = end + 1;
    if (line.empty() || line[0] == '#') {
      if (end == text.size()) break;
      continue;
    }
    if (!OracleParseLine(line, &items, &error)) {
      out.ok = false;
      out.error = "line " + std::to_string(line_no) + ": " + error;
      return out;
    }
    NormalizeItems(&items);
    if (!items.empty()) {
      out.num_items = std::max<std::size_t>(out.num_items, items.back() + 1);
      out.rows.push_back(items);
    }
    if (end == text.size()) break;
  }
  return out;
}

// Returns whether the oracle accepted `text`.
bool ExpectParsesLikeOracle(std::string_view text) {
  const OracleResult want = OracleParseFimi(text);
  const auto got = ParseFimi(text);
  const std::string shown = ::testing::PrintToString(std::string(text));
  EXPECT_EQ(got.ok(), want.ok) << shown;
  if (got.ok() != want.ok) return want.ok;
  if (!want.ok) {
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << shown;
    EXPECT_EQ(got.status().message(), want.error) << shown;
    return false;
  }
  EXPECT_EQ(RowsOf(got.value()), want.rows) << shown;
  EXPECT_EQ(got.value().NumItems(), want.num_items) << shown;
  return true;
}

TEST(FimiParseDifferentialTest, EdgeCases) {
  const std::string_view kTexts[] = {
      "", "\n", "\n\n\n", "#", "# only a comment", "1", "1\n", "3 1 2 1",
      "1\r\n2 3\r\n", "\r\n", " \t\v\f\r\n", "1\v2\f3\t4\r", "5 5 5\n5\n",
      "2 1\n\n#x\n 3", "4294967294", "4294967295", "0 4294967294 4294967295",
      "00000000000004294967294", "99999999999999999999999", "1 2\n3 x 4\n",
      "1 #2", " #", "-1", "+1", "1.5", "1,2", std::string_view("1\0 2", 4),
      "\x80", "\n\n7 x", "1\n2\n3\n# last"};
  for (const std::string_view text : kTexts) ExpectParsesLikeOracle(text);
}

// Random texts over the pieces that decide how a line parses: ids (the
// largest valid one, the first invalid one, ids that only overflow
// once adjacent digits join them), every whitespace byte, line breaks,
// comment lines, and now and then a stray byte.
std::string RandomFimiText(Rng& rng) {
  static const std::vector<std::string> kCommon = {
      "0", "1", "7", "42", "007", "199", "4294967294", "4294967295",
      " ", " ", "  ", "\t", "\v", "\f", "\r", "\r\n", "\n", "\n", "\n",
      "\n#", "\n# c 1", "\n\n"};
  static const std::vector<std::string> kStray = {
      "x", "#", "-", "+", ".", "\x80", "\xff", std::string(1, '\0')};
  std::string text;
  const std::size_t pieces = rng.Uniform(40);
  for (std::size_t i = 0; i < pieces; ++i) {
    text += rng.Uniform(60) == 0 ? kStray[rng.Uniform(kStray.size())]
                                 : kCommon[rng.Uniform(kCommon.size())];
  }
  return text;
}

TEST(FimiParseDifferentialTest, RandomTextsMatchTheLineParser) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 20000; ++seed) {
    Rng rng(seed);
    const std::string text = RandomFimiText(rng);
    if (ExpectParsesLikeOracle(text)) {
      ++accepted;
    } else {
      ++rejected;
    }
    if (HasFailure()) return;  // one reported text is enough
  }
  // Both outcomes must be well exercised for the comparison to mean
  // anything.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
}

TEST(StatsTest, ComputesShape) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {1}, {1, 2}});
  const DatabaseStats stats = ComputeStats(db);
  EXPECT_EQ(stats.num_transactions, 3u);
  EXPECT_EQ(stats.num_items, 3u);
  EXPECT_EQ(stats.num_used_items, 3u);
  EXPECT_EQ(stats.total_occurrences, 6u);
  EXPECT_EQ(stats.min_transaction_size, 1u);
  EXPECT_EQ(stats.max_transaction_size, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_transaction_size, 2.0);
  EXPECT_NEAR(stats.density, 6.0 / 9.0, 1e-9);
  EXPECT_FALSE(StatsToString(stats).empty());
}

TEST(StatsTest, EmptyDatabase) {
  const DatabaseStats stats = ComputeStats(TransactionDatabase());
  EXPECT_EQ(stats.num_transactions, 0u);
  EXPECT_EQ(stats.total_occurrences, 0u);
  EXPECT_EQ(stats.density, 0.0);
}

}  // namespace
}  // namespace fim

// Unit tests of item recoding and transaction reordering (§3.4
// preprocessing).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "data/recode.h"
#include "data/transpose.h"
#include "test_rows.h"

namespace fim {
namespace {

TransactionDatabase SmallDb() {
  // Frequencies: item0: 3, item1: 1, item2: 2, item3: 0 (declared only).
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {0, 2}, {0, 2}});
  db.SetNumItems(4);
  return db;
}

TEST(RecodeTest, FrequencyAscendingGivesRarestCodeZero) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  // Unused item 3 is dropped entirely.
  EXPECT_EQ(r.num_kept(), 3u);
  EXPECT_EQ(r.old_to_new[3], kInvalidItem);
  // freq(1)=1 < freq(2)=2 < freq(0)=3.
  EXPECT_EQ(r.old_to_new[1], 0u);
  EXPECT_EQ(r.old_to_new[2], 1u);
  EXPECT_EQ(r.old_to_new[0], 2u);
  EXPECT_EQ(r.new_to_old, (std::vector<ItemId>{1, 2, 0}));
}

TEST(RecodeTest, FrequencyDescendingReverses) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyDescending, 1);
  EXPECT_EQ(r.old_to_new[0], 0u);
  EXPECT_EQ(r.old_to_new[2], 1u);
  EXPECT_EQ(r.old_to_new[1], 2u);
}

TEST(RecodeTest, NoneKeepsRelativeOrderOfKeptItems) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  EXPECT_EQ(r.new_to_old, (std::vector<ItemId>{0, 1, 2}));
}

TEST(RecodeTest, MinSupportDropsInfrequentItems) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 2);
  EXPECT_EQ(r.num_kept(), 2u);  // items 0 and 2 survive
  EXPECT_EQ(r.old_to_new[1], kInvalidItem);
}

TEST(RecodeTest, ApplyMapsAndDropsEmptyTransactions) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 2);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kNone);
  // {0,1} loses item 1 -> {0}; others map fully.
  EXPECT_EQ(coded.NumTransactions(), 3u);
  EXPECT_EQ(coded.NumItems(), 2u);
  for (std::size_t k = 0; k < coded.NumTransactions(); ++k) {
    for (ItemId i : coded.transaction(k)) EXPECT_LT(i, 2u);
  }
}

TEST(RecodeTest, SizeAscendingOrdersBySizeThenDescendingLex) {
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {2}, {0, 1}, {1, 2}});
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kSizeAscending);
  ASSERT_EQ(coded.NumTransactions(), 4u);
  EXPECT_EQ(coded.transaction(0).size(), 1u);
  EXPECT_EQ(coded.transaction(1).size(), 2u);
  EXPECT_EQ(coded.transaction(2).size(), 2u);
  EXPECT_EQ(coded.transaction(3).size(), 3u);
  // Same-size tiebreak: lexicographic on the descending item sequence:
  // {0,1} reads (1,0), {1,2} reads (2,1) -> {0,1} first.
  EXPECT_EQ(RowOf(coded, 1), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(RowOf(coded, 2), (std::vector<ItemId>{1, 2}));
}

TEST(RecodeTest, SizeDescendingReverses) {
  TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{2}, {0, 1, 2}});
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 1);
  const TransactionDatabase coded =
      ApplyRecoding(db, r, TransactionOrder::kSizeDescending);
  EXPECT_EQ(coded.transaction(0).size(), 3u);
  EXPECT_EQ(coded.transaction(1).size(), 1u);
}

TEST(RecodeTest, DecodeRoundTrip) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  const std::vector<ItemId> coded = {0, 2};  // items 1 and 0
  EXPECT_EQ(DecodeItems(coded, r), (std::vector<ItemId>{0, 1}));
}

TEST(RecodeTest, DecodingCallbackTranslatesAndSorts) {
  const TransactionDatabase db = SmallDb();
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  ClosedSetCollector collector;
  ClosedSetCallback cb = MakeDecodingCallback(r, collector.AsCallback());
  const std::vector<ItemId> coded = {1, 2};  // -> old items {2, 0}
  cb(coded, 2);
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.sets()[0].items, (std::vector<ItemId>{0, 2}));
  EXPECT_EQ(collector.sets()[0].support, 2u);
}

// --- RecodeWeighted -----------------------------------------------------

using Row = std::vector<ItemId>;

// The coded rows of `db` in input order: mapped, re-sorted, empty rows
// dropped.
std::vector<Row> CodedRows(const TransactionDatabase& db, const Recoding& r) {
  std::vector<Row> rows;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    Row coded;
    for (ItemId i : db.transaction(k)) {
      if (r.old_to_new[i] != kInvalidItem) coded.push_back(r.old_to_new[i]);
    }
    std::sort(coded.begin(), coded.end());
    if (!coded.empty()) rows.push_back(std::move(coded));
  }
  return rows;
}

// Same size: lexicographic on the descending item sequence.
bool ReferenceLess(const Row& a, const Row& b, TransactionOrder order) {
  if (a.size() != b.size()) {
    return order == TransactionOrder::kSizeAscending ? a.size() < b.size()
                                                     : a.size() > b.size();
  }
  return std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                      b.rend());
}

// The row-by-row recoding with a stable sort of the row vectors.
TransactionDatabase ReferenceApplyRecoding(const TransactionDatabase& db,
                                           const Recoding& r,
                                           TransactionOrder order) {
  std::vector<Row> rows = CodedRows(db, r);
  if (order != TransactionOrder::kNone) {
    std::stable_sort(rows.begin(), rows.end(),
                     [order](const Row& a, const Row& b) {
                       return ReferenceLess(a, b, order);
                     });
  }
  TransactionDatabase out;
  for (Row& row : rows) out.AddTransaction(std::move(row));
  out.SetNumItems(r.num_kept());
  return out;
}

std::vector<Row> RowsOf(const WeightedDatabase& w) {
  std::vector<Row> rows;
  for (std::size_t t = 0; t < w.size(); ++t) {
    rows.emplace_back(w.row(t).begin(), w.row(t).end());
  }
  return rows;
}

// Checks RecodeWeighted(db, r, order, merge) against a std::map of the
// coded rows to their multiplicities.
void ExpectMatchesReference(const TransactionDatabase& db, const Recoding& r,
                            TransactionOrder order, bool merge) {
  SCOPED_TRACE(::testing::Message() << "order " << static_cast<int>(order)
                                    << " merge " << merge);
  const std::vector<Row> coded = CodedRows(db, r);
  std::map<Row, Support> weights;
  std::vector<Row> first_seen;
  for (const Row& row : coded) {
    if (weights[row]++ == 0) first_seen.push_back(row);
  }

  const WeightedDatabase w = RecodeWeighted(db, r, order, merge);
  const std::vector<Row> rows = RowsOf(w);
  EXPECT_EQ(w.num_items(), r.num_kept());
  EXPECT_EQ(w.TotalWeight(), coded.size());
  EXPECT_EQ(w.Unweighted(), !merge || weights.size() == coded.size());

  std::map<Row, Support> got;
  for (std::size_t t = 0; t < w.size(); ++t) {
    ASSERT_FALSE(rows[t].empty());
    ASSERT_TRUE(std::is_sorted(rows[t].begin(), rows[t].end()));
    if (merge) {
      EXPECT_EQ(got.count(rows[t]), 0u) << "row stored twice";
    } else {
      EXPECT_EQ(w.weight(t), 1u);
    }
    got[rows[t]] += w.weight(t);
  }
  EXPECT_EQ(got, weights);
  EXPECT_EQ(w.size(), merge ? weights.size() : coded.size());

  if (order == TransactionOrder::kNone) {
    EXPECT_EQ(rows, merge ? first_seen : coded);
  } else {
    for (std::size_t t = 1; t < rows.size(); ++t) {
      EXPECT_FALSE(ReferenceLess(rows[t], rows[t - 1], order)) << "row " << t;
    }
  }

  std::vector<Support> supports(r.num_kept(), 0);
  std::vector<std::vector<Tid>> vertical(r.num_kept());
  for (std::size_t t = 0; t < w.size(); ++t) {
    for (ItemId item : rows[t]) {
      supports[item] += w.weight(t);
      vertical[item].push_back(static_cast<Tid>(t));
    }
  }
  EXPECT_EQ(w.ItemSupports(), supports);
  EXPECT_EQ(w.BuildVertical(), vertical);
}

// Rows drawn from a small pool, so most are duplicates; the pool also
// holds rows of rare items only, which item elimination empties.
TransactionDatabase DuplicateHeavyDb(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> pool;
  for (int p = 0; p < 12; ++p) {
    Row row;
    const std::size_t size = 1 + rng.Uniform(6);
    for (std::size_t k = 0; k < size; ++k) {
      row.push_back(static_cast<ItemId>(rng.Uniform(10)));
    }
    pool.push_back(row);
  }
  pool.push_back({20});
  pool.push_back({21, 22});
  TransactionDatabase db;
  for (int n = 0; n < 300; ++n) {
    Row row = pool[rng.Uniform(pool.size())];
    if (rng.Uniform(8) == 0) {
      row.push_back(static_cast<ItemId>(rng.Uniform(12)));
    }
    db.AddTransaction(row);
  }
  return db;
}

TEST(RecodeWeightedTest, MatchesMapReferenceUnderEveryOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const TransactionDatabase db = DuplicateHeavyDb(seed);
    for (ItemOrder item_order :
         {ItemOrder::kNone, ItemOrder::kFrequencyAscending,
          ItemOrder::kFrequencyDescending}) {
      // Minimum item support 1 keeps every item; 30 drops the rare ones
      // and empties the rows made of them.
      for (Support min_item_support : {1u, 30u}) {
        const Recoding r = ComputeRecoding(db, item_order, min_item_support);
        for (TransactionOrder order :
             {TransactionOrder::kNone, TransactionOrder::kSizeAscending,
              TransactionOrder::kSizeDescending}) {
          for (bool merge : {true, false}) {
            ExpectMatchesReference(db, r, order, merge);
          }
        }
      }
    }
  }
}

TEST(RecodeWeightedTest, RowsEmptiedByEliminationAreDropped) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {5}, {0, 1}, {5, 6}, {0}, {0, 1}});
  const Recoding r = ComputeRecoding(db, ItemOrder::kNone, 3);
  const WeightedDatabase w =
      RecodeWeighted(db, r, TransactionOrder::kNone, true);
  // Items 5 and 6 are below support 3, so {5} and {5, 6} lose every
  // item; {0, 1} x3 and {0} remain.
  EXPECT_EQ(w.TotalWeight(), 4u);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(RowsOf(w), (std::vector<Row>{{0, 1}, {0}}));
  EXPECT_EQ(w.weight(0), 3u);
  EXPECT_EQ(w.weight(1), 1u);
}

TEST(RecodeWeightedTest, ManyDistinctRowsGrowTheTable) {
  // 5000 distinct rows (the bit patterns of 1..5000 over 13 items), each
  // twice: the merge table grows many times and must lose no row.
  TransactionDatabase db;
  for (int copy = 0; copy < 2; ++copy) {
    for (unsigned k = 1; k <= 5000; ++k) {
      Row row;
      for (ItemId bit = 0; bit < 13; ++bit) {
        if ((k >> bit) & 1u) row.push_back(bit);
      }
      db.AddTransaction(row);
    }
  }
  const Recoding r = ComputeRecoding(db, ItemOrder::kFrequencyAscending, 1);
  for (TransactionOrder order :
       {TransactionOrder::kNone, TransactionOrder::kSizeAscending}) {
    const WeightedDatabase w = RecodeWeighted(db, r, order, true);
    ASSERT_EQ(w.size(), 5000u);
    for (std::size_t t = 0; t < w.size(); ++t) EXPECT_EQ(w.weight(t), 2u);
    ExpectMatchesReference(db, r, order, true);
  }
}

TEST(RecodeWeightedTest, ApplyRecodingExpandsLikeTheRowByRowRecoding) {
  std::vector<TransactionDatabase> inputs;
  inputs.push_back(SmallDb());
  inputs.push_back(TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {2}, {0, 1}, {1, 2}}));
  inputs.push_back(TransactionDatabase::FromTransactions({{2}, {0, 1, 2}}));
  inputs.push_back(DuplicateHeavyDb(4));
  for (const TransactionDatabase& db : inputs) {
    for (ItemOrder item_order :
         {ItemOrder::kNone, ItemOrder::kFrequencyAscending,
          ItemOrder::kFrequencyDescending}) {
      for (Support min_item_support : {1u, 2u}) {
        const Recoding r = ComputeRecoding(db, item_order, min_item_support);
        for (TransactionOrder order :
             {TransactionOrder::kNone, TransactionOrder::kSizeAscending,
              TransactionOrder::kSizeDescending}) {
          const TransactionDatabase got = ApplyRecoding(db, r, order);
          const TransactionDatabase want =
              ReferenceApplyRecoding(db, r, order);
          EXPECT_EQ(RowsOf(got), RowsOf(want));
          EXPECT_EQ(got.NumItems(), want.NumItems());
        }
      }
    }
  }
}

TEST(TransposeTest, SwapsItemsAndTransactions) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 2}, {1, 2}, {2}});
  const TransactionDatabase t = Transpose(db);
  // Item 0 -> {t0}, item 1 -> {t1}, item 2 -> {t0,t1,t2}.
  ASSERT_EQ(t.NumTransactions(), 3u);
  EXPECT_EQ(RowOf(t, 0), (std::vector<ItemId>{0}));
  EXPECT_EQ(RowOf(t, 1), (std::vector<ItemId>{1}));
  EXPECT_EQ(RowOf(t, 2), (std::vector<ItemId>{0, 1, 2}));
  EXPECT_EQ(t.NumItems(), 3u);
}

TEST(TransposeTest, DoubleTransposeIsIdentityWhenNoEmptyRows) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1}, {1, 2}, {0, 2}});
  const TransactionDatabase back = Transpose(Transpose(db));
  EXPECT_EQ(RowsOf(back), RowsOf(db));
}

TEST(TransposeTest, SkipsUnusedItems) {
  TransactionDatabase db = TransactionDatabase::FromTransactions({{5}});
  // Items 0..4 unused: they produce no transposed transactions.
  const TransactionDatabase t = Transpose(db);
  EXPECT_EQ(t.NumTransactions(), 1u);
  EXPECT_EQ(RowOf(t, 0), (std::vector<ItemId>{0}));
}

}  // namespace
}  // namespace fim

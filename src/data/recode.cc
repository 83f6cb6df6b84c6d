#include "data/recode.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "obs/memory.h"

namespace fim {

Recoding ComputeRecoding(const TransactionDatabase& db, ItemOrder order,
                         Support min_item_support) {
  const std::vector<Support> freq = db.ItemFrequencies();
  const std::size_t n = freq.size();

  std::vector<ItemId> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (freq[i] >= min_item_support && freq[i] > 0) {
      kept.push_back(static_cast<ItemId>(i));
    }
  }

  switch (order) {
    case ItemOrder::kNone:
      break;
    case ItemOrder::kFrequencyAscending:
      std::stable_sort(kept.begin(), kept.end(), [&](ItemId a, ItemId b) {
        return freq[a] < freq[b];
      });
      break;
    case ItemOrder::kFrequencyDescending:
      std::stable_sort(kept.begin(), kept.end(), [&](ItemId a, ItemId b) {
        return freq[a] > freq[b];
      });
      break;
  }

  Recoding recoding;
  recoding.old_to_new.assign(n, kInvalidItem);
  recoding.new_to_old = std::move(kept);
  for (std::size_t code = 0; code < recoding.new_to_old.size(); ++code) {
    recoding.old_to_new[recoding.new_to_old[code]] =
        static_cast<ItemId>(code);
  }
  return recoding;
}

namespace {

// Lexicographic comparison on the descending item sequence (items are
// stored ascending, so compare from the back).
bool DescendingLexLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  auto ia = a.rbegin();
  auto ib = b.rbegin();
  for (; ia != a.rend() && ib != b.rend(); ++ia, ++ib) {
    if (*ia != *ib) return *ia < *ib;
  }
  return a.size() < b.size();
}

bool SizeAscendingLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return DescendingLexLess(a, b);
}

bool SizeDescendingLess(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return DescendingLexLess(a, b);
}

std::uint64_t HashRow(std::span<const ItemId> row) {
  std::uint64_t h = row.size();
  for (ItemId item : row) {
    h = (h ^ item) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  return h ^ (h >> 32);
}

// Open-addressing index over the rows stored so far, keyed by content
// (linear probing, at most half full). A slot holds a row index; each
// row's hash is kept so mismatches rarely need a full comparison and
// growth needs no rehashing of the rows themselves.
class RowTable {
 public:
  // Returns the index of the stored row equal to `row`; when there is
  // none, records `row` as the next index (the caller appends it) and
  // returns that index. `row_at(r)` yields stored row r.
  template <typename RowAt>
  std::uint32_t FindOrInsert(std::span<const ItemId> row, RowAt row_at) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const std::uint64_t hash = HashRow(row);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      const std::uint32_t r = slots_[s];
      if (r == kEmpty) {
        slots_[s] = static_cast<std::uint32_t>(hashes_.size());
        hashes_.push_back(hash);
        return slots_[s];
      }
      if (hashes_[r] == hash && std::ranges::equal(row_at(r), row)) return r;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  void Grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t r = 0; r < hashes_.size(); ++r) {
      std::size_t s = hashes_[r] & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = r;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;  // by row index
};

}  // namespace

std::vector<Support> WeightedDatabase::ItemSupports() const {
  std::vector<Support> supports(num_items(), 0);
  for (std::size_t t = 0; t < size(); ++t) {
    for (ItemId item : row(t)) supports[item] += weights_[t];
  }
  return supports;
}

std::vector<std::vector<Tid>> WeightedDatabase::BuildVertical() const {
  return rows_.BuildVertical();
}

obs::MemoryComponent WeightedDatabase::ApproxMemoryUsage() const {
  obs::MemoryComponent db = rows_.ApproxMemoryUsage();
  db.name = "weighted-db";
  db.children.emplace_back("weights", weights_.capacity() * sizeof(Support));
  return db;
}

WeightedDatabase RecodeWeighted(const TransactionDatabase& db,
                                const Recoding& recoding,
                                TransactionOrder transaction_order,
                                bool merge_duplicates) {
  WeightedDatabase out;
  out.rows_.SetNumItems(recoding.num_kept());
  std::vector<ItemId> coded;  // the current row, mapped
  const auto map_row = [&](std::span<const ItemId> row) {
    coded.clear();
    for (ItemId i : row) {
      if (i < recoding.old_to_new.size() &&
          recoding.old_to_new[i] != kInvalidItem) {
        coded.push_back(recoding.old_to_new[i]);
      }
    }
    std::sort(coded.begin(), coded.end());
  };
  if (!merge_duplicates) {
    out.rows_.Reserve(db.NumTransactions(), db.TotalItemOccurrences());
    out.weights_.reserve(db.NumTransactions());
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      map_row(db.transaction(k));
      if (coded.empty()) continue;
      out.rows_.AddTransaction(coded);
      out.weights_.push_back(1);
    }
    out.total_weight_ = static_cast<Support>(out.size());
  } else {
    // Merge identical input rows first, keyed by their spans in `db`
    // (input rows are normalized, so equal sets are equal spans): by
    // first occurrence, the index of each distinct row and its count.
    std::vector<std::uint32_t> distinct;
    std::vector<Support> counts;
    {
      RowTable table;
      const auto distinct_at = [&](std::uint32_t r) {
        return db.transaction(distinct[r]);
      };
      for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
        const std::uint32_t r =
            table.FindOrInsert(db.transaction(k), distinct_at);
        if (r < distinct.size()) {
          ++counts[r];
        } else {
          distinct.push_back(static_cast<std::uint32_t>(k));
          counts.push_back(1);
        }
      }
    }
    // Then map only the distinct rows and merge those that coincide
    // after recoding. Taking them by first occurrence keeps the merged
    // rows in first-occurrence order too.
    RowTable table;
    const auto row_at = [&out](std::uint32_t r) { return out.row(r); };
    for (std::size_t r = 0; r < distinct.size(); ++r) {
      map_row(db.transaction(distinct[r]));
      if (coded.empty()) continue;
      out.total_weight_ += counts[r];
      const std::uint32_t c = table.FindOrInsert(coded, row_at);
      if (c < out.weights_.size()) {
        out.weights_[c] += counts[r];
      } else {
        out.rows_.AddTransaction(coded);
        out.weights_.push_back(counts[r]);
      }
    }
  }
  if (transaction_order == TransactionOrder::kNone) return out;

  // Order the rows by an index sort, then lay them out again in order.
  std::vector<std::uint32_t> order(out.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto less = transaction_order == TransactionOrder::kSizeAscending
                        ? SizeAscendingLess
                        : SizeDescendingLess;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return less(out.row(a), out.row(b));
  });
  WeightedDatabase sorted;
  sorted.rows_.SetNumItems(out.num_items());
  sorted.total_weight_ = out.total_weight_;
  sorted.rows_.Reserve(out.size(), out.rows_.TotalItemOccurrences());
  sorted.weights_.reserve(out.weights_.size());
  for (std::uint32_t r : order) {
    sorted.rows_.AddTransaction(out.row(r));
    sorted.weights_.push_back(out.weights_[r]);
  }
  return sorted;
}

TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kRecode);
  WeightedDatabase coded = RecodeWeighted(db, recoding, transaction_order,
                                          /*merge_duplicates=*/false);
  return std::move(coded.rows_);
}

std::vector<ItemId> DecodeItems(std::span<const ItemId> coded,
                                const Recoding& recoding) {
  std::vector<ItemId> out;
  out.reserve(coded.size());
  for (ItemId c : coded) out.push_back(recoding.new_to_old[c]);
  std::sort(out.begin(), out.end());
  return out;
}

ClosedSetCallback MakeDecodingCallback(const Recoding& recoding,
                                       ClosedSetCallback inner) {
  // The recoding is copied so the callback stays valid beyond the caller's
  // scope (miners may run asynchronously from the setup code).
  std::vector<ItemId> new_to_old = recoding.new_to_old;
  return [new_to_old = std::move(new_to_old),
          inner = std::move(inner)](std::span<const ItemId> items,
                                    Support support) {
    std::vector<ItemId> decoded;
    decoded.reserve(items.size());
    for (ItemId c : items) decoded.push_back(new_to_old[c]);
    std::sort(decoded.begin(), decoded.end());
    inner(decoded, support);
  };
}

}  // namespace fim

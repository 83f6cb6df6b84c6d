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
  std::vector<Support> supports(num_items_, 0);
  for (std::size_t t = 0; t < size(); ++t) {
    for (ItemId item : row(t)) supports[item] += weights_[t];
  }
  return supports;
}

std::vector<std::vector<Tid>> WeightedDatabase::BuildVertical() const {
  std::vector<std::vector<Tid>> tidlists(num_items_);
  for (std::size_t t = 0; t < size(); ++t) {
    for (ItemId item : row(t)) tidlists[item].push_back(static_cast<Tid>(t));
  }
  return tidlists;
}

obs::MemoryComponent WeightedDatabase::ApproxMemoryUsage() const {
  obs::MemoryComponent db("weighted-db");
  db.children.emplace_back("items", items_.capacity() * sizeof(ItemId));
  db.children.emplace_back("offsets",
                           offsets_.capacity() * sizeof(std::size_t));
  db.children.emplace_back("weights", weights_.capacity() * sizeof(Support));
  return db;
}

WeightedDatabase RecodeWeighted(const TransactionDatabase& db,
                                const Recoding& recoding,
                                TransactionOrder transaction_order,
                                bool merge_duplicates) {
  WeightedDatabase out;
  out.num_items_ = recoding.num_kept();
  if (!merge_duplicates) {
    out.items_.reserve(db.TotalItemOccurrences());
    out.offsets_.reserve(db.NumTransactions() + 1);
    out.weights_.reserve(db.NumTransactions());
  }
  const auto row_at = [&out](std::uint32_t r) { return out.row(r); };
  RowTable table;
  std::vector<ItemId> coded;  // the current row, mapped
  for (const auto& transaction : db.transactions()) {
    coded.clear();
    for (ItemId i : transaction) {
      if (i < recoding.old_to_new.size() &&
          recoding.old_to_new[i] != kInvalidItem) {
        coded.push_back(recoding.old_to_new[i]);
      }
    }
    if (coded.empty()) continue;
    std::sort(coded.begin(), coded.end());
    ++out.total_weight_;
    if (merge_duplicates) {
      const std::uint32_t r = table.FindOrInsert(coded, row_at);
      if (r < out.weights_.size()) {
        ++out.weights_[r];
        continue;
      }
    }
    out.items_.insert(out.items_.end(), coded.begin(), coded.end());
    out.offsets_.push_back(out.items_.size());
    out.weights_.push_back(1);
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
  sorted.num_items_ = out.num_items_;
  sorted.total_weight_ = out.total_weight_;
  sorted.items_.reserve(out.items_.size());
  sorted.offsets_.reserve(out.offsets_.size());
  sorted.weights_.reserve(out.weights_.size());
  for (std::uint32_t r : order) {
    const std::span<const ItemId> row = out.row(r);
    sorted.items_.insert(sorted.items_.end(), row.begin(), row.end());
    sorted.offsets_.push_back(sorted.items_.size());
    sorted.weights_.push_back(out.weights_[r]);
  }
  return sorted;
}

TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kRecode);
  const WeightedDatabase coded = RecodeWeighted(
      db, recoding, transaction_order, /*merge_duplicates=*/false);
  TransactionDatabase out;
  for (std::size_t t = 0; t < coded.size(); ++t) {
    const std::span<const ItemId> row = coded.row(t);
    out.AddTransaction(std::vector<ItemId>(row.begin(), row.end()));
  }
  out.SetNumItems(recoding.num_kept());
  return out;
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

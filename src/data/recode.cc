#include "data/recode.h"

#include <algorithm>

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
bool DescendingLexLess(const std::vector<ItemId>& a,
                       const std::vector<ItemId>& b) {
  auto ia = a.rbegin();
  auto ib = b.rbegin();
  for (; ia != a.rend() && ib != b.rend(); ++ia, ++ib) {
    if (*ia != *ib) return *ia < *ib;
  }
  return a.size() < b.size();
}

// Maps the transactions through the recoding, dropping eliminated items
// and empty results; relative order is preserved.
std::vector<std::vector<ItemId>> MapTransactions(
    const std::vector<std::vector<ItemId>>& transactions,
    const Recoding& recoding) {
  std::vector<std::vector<ItemId>> mapped;
  mapped.reserve(transactions.size());
  for (const auto& t : transactions) {
    std::vector<ItemId> coded;
    coded.reserve(t.size());
    for (ItemId i : t) {
      if (i < recoding.old_to_new.size() &&
          recoding.old_to_new[i] != kInvalidItem) {
        coded.push_back(recoding.old_to_new[i]);
      }
    }
    if (coded.empty()) continue;
    std::sort(coded.begin(), coded.end());
    mapped.push_back(std::move(coded));
  }
  return mapped;
}

bool SizeAscendingLess(const std::vector<ItemId>& a,
                       const std::vector<ItemId>& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return DescendingLexLess(a, b);
}

bool SizeDescendingLess(const std::vector<ItemId>& a,
                        const std::vector<ItemId>& b) {
  if (a.size() != b.size()) return a.size() > b.size();
  return DescendingLexLess(a, b);
}

}  // namespace

TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kRecode);
  std::vector<std::vector<ItemId>> mapped =
      MapTransactions(db.transactions(), recoding);
  if (transaction_order != TransactionOrder::kNone) {
    std::stable_sort(mapped.begin(), mapped.end(),
                     transaction_order == TransactionOrder::kSizeAscending
                         ? SizeAscendingLess
                         : SizeDescendingLess);
  }

  TransactionDatabase out;
  for (auto& t : mapped) out.AddTransaction(std::move(t));
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

#ifndef FIM_DATA_RECODE_H_
#define FIM_DATA_RECODE_H_

#include <span>
#include <vector>

#include "data/itemset.h"
#include "data/transaction_database.h"

namespace fim {

/// Item code assignment policy (paper §3.4). The intersection miners are
/// fastest with ascending frequency (the rarest item gets code 0).
enum class ItemOrder {
  kNone,                  // keep original ids
  kFrequencyAscending,    // rarest item -> code 0 (paper default)
  kFrequencyDescending,   // most frequent item -> code 0
};

/// Transaction processing order (paper §3.4). Increasing size is the
/// paper's recommendation for the cumulative scheme.
enum class TransactionOrder {
  kNone,            // keep input order
  kSizeAscending,   // smallest transactions first (paper default)
  kSizeDescending,  // largest transactions first
};

/// A bijective (up to dropped items) mapping between original item ids and
/// mining codes. Items below the minimum support can be dropped up front:
/// this never changes the frequent closed item sets or their supports,
/// because every item of a frequent closed set is itself frequent, and so
/// is every item its closure could add.
struct Recoding {
  std::vector<ItemId> old_to_new;  // kInvalidItem for dropped items
  std::vector<ItemId> new_to_old;

  std::size_t num_kept() const { return new_to_old.size(); }
};

/// Computes the code assignment for `order`, dropping all items whose
/// frequency is below `min_item_support` (pass 0 or 1 to keep everything).
Recoding ComputeRecoding(const TransactionDatabase& db, ItemOrder order,
                         Support min_item_support);

/// Produces the recoded database: items mapped (dropped items removed,
/// transactions renormalized, empty transactions discarded) and
/// transactions reordered according to `transaction_order`. Same-size
/// transactions are ordered lexicographically on their descending item
/// sequence, as in the paper.
TransactionDatabase ApplyRecoding(const TransactionDatabase& db,
                                  const Recoding& recoding,
                                  TransactionOrder transaction_order);

/// Maps mined item codes back to original item ids (sorted ascending).
std::vector<ItemId> DecodeItems(std::span<const ItemId> coded,
                                const Recoding& recoding);

/// Wraps `inner` so that reported sets are translated back to original
/// item ids before being forwarded.
ClosedSetCallback MakeDecodingCallback(const Recoding& recoding,
                                       ClosedSetCallback inner);

}  // namespace fim

#endif  // FIM_DATA_RECODE_H_

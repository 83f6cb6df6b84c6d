#ifndef FIM_DATA_RECODE_H_
#define FIM_DATA_RECODE_H_

#include <span>
#include <vector>

#include "data/itemset.h"
#include "data/transaction_database.h"
#include "obs/memory.h"

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

/// A recoded database with identical rows merged (paper §3.2-§3.4: IsTa
/// processes transactions with multiplicities; LCM calls the same step
/// database reduction). The rows live in a TransactionDatabase's flat
/// store (one items array plus row offsets, each row ascending and
/// non-empty), with a weight per row (its multiplicity in the input).
/// Built by RecodeWeighted; read-only afterwards, so parallel workers may
/// share one instance.
class WeightedDatabase {
 public:
  /// Number of (unique, when merged) rows.
  std::size_t size() const { return weights_.size(); }
  std::size_t num_items() const { return rows_.NumItems(); }

  std::span<const ItemId> row(std::size_t t) const {
    return rows_.transaction(t);
  }
  Support weight(std::size_t t) const { return weights_[t]; }

  /// Sum of the weights: the number of non-empty input rows.
  Support TotalWeight() const { return total_weight_; }

  /// True when every weight is 1 (nothing merged), so a row count is a
  /// support.
  bool Unweighted() const { return total_weight_ == size(); }

  /// Weighted occurrence count of every item (its support).
  std::vector<Support> ItemSupports() const;

  /// For each item, the ascending list of rows containing it.
  std::vector<std::vector<Tid>> BuildVertical() const;

  /// Heap footprint (capacity bytes) as a breakdown named "weighted-db":
  /// the items array, the row offsets and the weights.
  obs::MemoryComponent ApproxMemoryUsage() const;

 private:
  friend WeightedDatabase RecodeWeighted(const TransactionDatabase&,
                                         const Recoding&, TransactionOrder,
                                         bool);
  friend TransactionDatabase ApplyRecoding(const TransactionDatabase&,
                                           const Recoding&, TransactionOrder);

  TransactionDatabase rows_;
  std::vector<Support> weights_;  // multiplicity of each row
  Support total_weight_ = 0;
};

/// The recoding pass of every miner that recodes: maps each row of `db`
/// through `recoding` (dropped items removed, rows re-sorted, rows left
/// empty discarded) and, with `merge_duplicates`, merges identical coded
/// rows into one weighted row. Merging first merges identical input rows
/// by content, in place in `db`, so only the distinct input rows are
/// mapped. The rows are then ordered by `transaction_order`: by size,
/// same-size rows lexicographically on their descending item sequence,
/// as in the paper; kNone keeps the input order (first occurrence, when
/// merged). Without merging every weight is 1 and identical rows stay
/// separate (adjacent under a size order).
WeightedDatabase RecodeWeighted(const TransactionDatabase& db,
                                const Recoding& recoding,
                                TransactionOrder transaction_order,
                                bool merge_duplicates);

/// RecodeWeighted without merging, as a TransactionDatabase (one
/// transaction per non-empty input row; the rows are moved out, not
/// copied) for the miners that keep rows separate.
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

#ifndef FIM_DATA_TRANSACTION_DATABASE_H_
#define FIM_DATA_TRANSACTION_DATABASE_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "obs/memory.h"

namespace fim {

/// Horizontal transaction database: a bag of transactions, each a sorted,
/// duplicate-free run of item ids over the item base 0..NumItems()-1.
///
/// The rows are stored back to back, CSR-style: one items array plus the
/// end offset of every row, so a database of any size owns two heap
/// buffers and no per-row object.
///
/// This is the input type of every miner in the library. Construction is
/// incremental via AddTransaction(); items are normalized on insertion.
/// Empty transactions are kept out (they carry no information for closed
/// item set mining; see paper §2.2 "no empty transactions are ever kept").
class TransactionDatabase {
 public:
  TransactionDatabase() = default;

  /// Builds a database from raw transactions; items are normalized.
  /// `num_items` may be 0 to derive the item base from the data.
  static TransactionDatabase FromTransactions(
      const std::vector<std::vector<ItemId>>& transactions,
      std::size_t num_items = 0);

  /// Appends one transaction, then sorts and deduplicates it in place
  /// (skipped when it is already strictly ascending). Empty transactions
  /// are dropped. Grows the item base if needed. `items` may be a row of
  /// this database.
  void AddTransaction(std::span<const ItemId> items);

  /// Reserves room for `transactions` more rows holding `items` more
  /// item occurrences.
  void Reserve(std::size_t transactions, std::size_t items);

  /// Appends every transaction of `other` (one copy of its items) and
  /// grows the item base to cover `other`'s.
  void Append(const TransactionDatabase& other);

  /// Declares the item base size (useful when some items never occur).
  /// Never shrinks below the largest item seen.
  void SetNumItems(std::size_t num_items);

  /// Optional human-readable item names (for examples / reporting).
  /// Must have exactly NumItems() entries when set.
  Status SetItemNames(std::vector<std::string> names);
  const std::vector<std::string>& item_names() const { return item_names_; }

  /// Name of `item`, or its numeric id when no names are attached.
  std::string ItemName(ItemId item) const;

  std::size_t NumTransactions() const { return ends_.size(); }
  std::size_t NumItems() const { return num_items_; }

  /// Total number of item occurrences over all transactions.
  std::size_t TotalItemOccurrences() const {
    return ends_.empty() ? 0 : ends_.back();
  }

  /// Transaction `k`, items ascending; valid until the next insertion.
  std::span<const ItemId> transaction(std::size_t k) const {
    const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
    return {items_.data() + begin, ends_[k] - begin};
  }

  /// Number of transactions containing each item.
  std::vector<Support> ItemFrequencies() const;

  /// Vertical representation: for each item, the ascending list of
  /// transaction indices containing it (the Carpenter representation).
  std::vector<std::vector<Tid>> BuildVertical() const;

  /// Support of an arbitrary (sorted) item set by direct counting.
  /// O(total database size); meant for tests and small inputs.
  Support CountSupport(std::span<const ItemId> items) const;

  /// Exact heap footprint (capacity bytes) as a breakdown named
  /// "database": the items array and the row offsets vs the optional
  /// item names.
  obs::MemoryComponent ApproxMemoryUsage() const;

 private:
  // The parsers write item ids straight into the tail of items_ and
  // close each row with CloseTransaction.
  friend Result<TransactionDatabase> ParseFimi(std::string_view text);
  friend Result<TransactionDatabase> ParseFimb(std::string_view bytes);

  /// Makes the items appended after the last row a row of their own:
  /// normalizes them in place, then records the row (or drops it when
  /// it is empty).
  void CloseTransaction();

  std::vector<ItemId> items_;  // rows, back to back
  // End offset of every row: row k is [ends_[k - 1], ends_[k]), with 0
  // for ends_[-1]. Without a leading 0, a moved-from database is a valid
  // empty one.
  std::vector<std::size_t> ends_;
  std::vector<std::string> item_names_;
  std::size_t num_items_ = 0;
};

}  // namespace fim

#endif  // FIM_DATA_TRANSACTION_DATABASE_H_

// The rows of a TransactionDatabase as plain vectors, so tests can
// compare them with == and print them on failure.

#ifndef FIM_TESTS_TEST_ROWS_H_
#define FIM_TESTS_TEST_ROWS_H_

#include <cstddef>
#include <vector>

#include "data/transaction_database.h"

namespace fim {

inline std::vector<ItemId> RowOf(const TransactionDatabase& db,
                                 std::size_t k) {
  const std::span<const ItemId> row = db.transaction(k);
  return std::vector<ItemId>(row.begin(), row.end());
}

inline std::vector<std::vector<ItemId>> RowsOf(const TransactionDatabase& db) {
  std::vector<std::vector<ItemId>> rows;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    rows.push_back(RowOf(db, k));
  }
  return rows;
}

}  // namespace fim

#endif  // FIM_TESTS_TEST_ROWS_H_

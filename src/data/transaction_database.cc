#include "data/transaction_database.h"

#include <algorithm>
#include <functional>

namespace fim {

TransactionDatabase TransactionDatabase::FromTransactions(
    const std::vector<std::vector<ItemId>>& transactions,
    std::size_t num_items) {
  TransactionDatabase db;
  for (const auto& t : transactions) db.AddTransaction(t);
  db.SetNumItems(num_items);
  return db;
}

void TransactionDatabase::AddTransaction(std::span<const ItemId> items) {
  if (items.empty()) return;
  const std::size_t begin = items_.size();
  const std::less<const ItemId*> before;
  if (!before(items.data(), items_.data()) &&
      before(items.data(), items_.data() + begin)) {
    // A row of this database: growing may move it, so copy it from its
    // offset afterwards.
    const auto from = static_cast<std::size_t>(items.data() - items_.data());
    items_.resize(begin + items.size());
    std::copy_n(items_.data() + from, items.size(), items_.data() + begin);
  } else {
    items_.insert(items_.end(), items.begin(), items.end());
  }
  CloseTransaction();
}

void TransactionDatabase::CloseTransaction() {
  const auto first =
      items_.begin() + static_cast<std::ptrdiff_t>(TotalItemOccurrences());
  if (std::adjacent_find(first, items_.end(), std::greater_equal<>()) !=
      items_.end()) {
    std::sort(first, items_.end());
    items_.erase(std::unique(first, items_.end()), items_.end());
  }
  if (first == items_.end()) return;
  num_items_ =
      std::max(num_items_, static_cast<std::size_t>(items_.back()) + 1);
  ends_.push_back(items_.size());
}

void TransactionDatabase::Reserve(std::size_t transactions,
                                  std::size_t items) {
  ends_.reserve(ends_.size() + transactions);
  items_.reserve(items_.size() + items);
}

void TransactionDatabase::Append(const TransactionDatabase& other) {
  const std::size_t shift = items_.size();
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  for (std::size_t end : other.ends_) ends_.push_back(shift + end);
  num_items_ = std::max(num_items_, other.num_items_);
}

void TransactionDatabase::SetNumItems(std::size_t num_items) {
  num_items_ = std::max(num_items_, num_items);
}

Status TransactionDatabase::SetItemNames(std::vector<std::string> names) {
  if (names.size() != num_items_) {
    return Status::InvalidArgument("item name count does not match item base");
  }
  item_names_ = std::move(names);
  return Status::OK();
}

std::string TransactionDatabase::ItemName(ItemId item) const {
  if (item < item_names_.size()) return item_names_[item];
  return std::to_string(item);
}

std::vector<Support> TransactionDatabase::ItemFrequencies() const {
  std::vector<Support> freq(num_items_, 0);
  for (ItemId i : items_) ++freq[i];
  return freq;
}

std::vector<std::vector<Tid>> TransactionDatabase::BuildVertical() const {
  std::vector<std::vector<Tid>> tidlists(num_items_);
  for (std::size_t k = 0; k < NumTransactions(); ++k) {
    for (ItemId i : transaction(k)) {
      tidlists[i].push_back(static_cast<Tid>(k));
    }
  }
  return tidlists;
}

Support TransactionDatabase::CountSupport(std::span<const ItemId> items) const {
  Support s = 0;
  for (std::size_t k = 0; k < NumTransactions(); ++k) {
    if (IsSubsetSorted(items, transaction(k))) ++s;
  }
  return s;
}

obs::MemoryComponent TransactionDatabase::ApproxMemoryUsage() const {
  obs::MemoryComponent db("database");
  db.children.emplace_back("items", items_.capacity() * sizeof(ItemId));
  db.children.emplace_back("offsets", ends_.capacity() * sizeof(std::size_t));
  if (!item_names_.empty()) {
    std::size_t name_bytes = item_names_.capacity() * sizeof(item_names_[0]);
    for (const auto& name : item_names_) {
      // Count only heap-backed strings: an SSO buffer lives inside the
      // vector storage already counted above.
      const char* data = name.data();
      const char* object = reinterpret_cast<const char*>(&name);
      if (data < object || data >= object + sizeof(name)) {
        name_bytes += name.capacity() + 1;  // +1: the terminator slot
      }
    }
    db.children.emplace_back("item-names", name_bytes);
  }
  return db;
}

}  // namespace fim

#include "enumeration/apriori.h"

#include <algorithm>
#include <set>
#include <vector>

namespace fim {

namespace {

// Joins two sorted size-k sets sharing their first k-1 items into a
// size-(k+1) candidate; returns false if they do not share the prefix.
bool Join(const std::vector<ItemId>& a, const std::vector<ItemId>& b,
          std::vector<ItemId>* out) {
  if (!std::equal(a.begin(), a.end() - 1, b.begin())) return false;
  if (a.back() >= b.back()) return false;
  *out = a;
  out->push_back(b.back());
  return true;
}

// Apriori pruning: every size-k subset of the candidate must be frequent.
bool AllSubsetsFrequent(const std::vector<ItemId>& candidate,
                        const std::set<std::vector<ItemId>>& frequent) {
  std::vector<ItemId> subset(candidate.size() - 1);
  for (std::size_t skip = 0; skip < candidate.size(); ++skip) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != skip) subset[out++] = candidate[i];
    }
    if (frequent.find(subset) == frequent.end()) return false;
  }
  return true;
}

}  // namespace

Status MineFrequentApriori(const TransactionDatabase& db,
                           const AprioriOptions& options,
                           const ClosedSetCallback& callback) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (db.NumTransactions() == 0) return Status::OK();

  // Level 1.
  const std::vector<Support> freq = db.ItemFrequencies();
  std::vector<std::vector<ItemId>> level;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    if (freq[i] >= options.min_support) {
      level.push_back({static_cast<ItemId>(i)});
      callback(level.back(), freq[i]);
    }
  }

  while (level.size() > 1) {
    // Candidate generation + prune.
    std::set<std::vector<ItemId>> frequent_prev(level.begin(), level.end());
    std::vector<std::vector<ItemId>> candidates;
    std::vector<ItemId> joined;
    for (std::size_t a = 0; a < level.size(); ++a) {
      for (std::size_t b = a + 1; b < level.size(); ++b) {
        if (!Join(level[a], level[b], &joined)) continue;
        if (AllSubsetsFrequent(joined, frequent_prev)) {
          candidates.push_back(joined);
        }
      }
    }
    if (candidates.empty()) break;

    // Support counting by database scan.
    std::vector<Support> counts(candidates.size(), 0);
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      const std::span<const ItemId> t = db.transaction(k);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (IsSubsetSorted(candidates[c], t)) ++counts[c];
      }
    }

    std::vector<std::vector<ItemId>> next;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] >= options.min_support) {
        callback(candidates[c], counts[c]);
        next.push_back(std::move(candidates[c]));
      }
    }
    level = std::move(next);
  }
  return Status::OK();
}

}  // namespace fim

#ifndef FIM_ENUMERATION_CHARM_H_
#define FIM_ENUMERATION_CHARM_H_

#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
}  // namespace obs

/// Options of the CHARM baseline.
struct CharmOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// database and the root itemset-tidset pairs after the vertical
  /// build. Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Closed frequent item set mining with a CHARM-style itemset-tidset
/// search (Zaki & Hsiao): vertical tid sets, the four tidset-relation
/// properties to grow closures and prune the search, plus a subsumption
/// check before reporting. A third enumeration-side baseline next to
/// FP-close and LCM. The tid sets range over the duplicate-merged rows
/// (RecodeWeighted); a node's support is the sum of its rows' weights.
/// Same output contract as the other miners.
/// `stats` (optional) receives weighted_transactions (rows after
/// merging), extension_checks (tidset pairs examined),
/// closure_checks (property-1/2 item merges), subsume_checks (bucket
/// comparisons before reporting), and sets_reported; output-neutral.
Status MineClosedCharm(const TransactionDatabase& db,
                       const CharmOptions& options,
                       const ClosedSetCallback& callback,
                       MinerStats* stats = nullptr);

}  // namespace fim

#endif  // FIM_ENUMERATION_CHARM_H_

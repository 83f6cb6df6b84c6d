#ifndef FIM_ENUMERATION_FPCLOSE_H_
#define FIM_ENUMERATION_FPCLOSE_H_

#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
}  // namespace obs

/// Options of the FP-close baseline.
struct FpCloseOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// database and the candidate pool before the closed filter.
  /// Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Closed frequent item set mining via FP-growth (the enumeration-side
/// baseline of the paper's experiments): the root FP-tree is built from
/// the duplicate-merged database (RecodeWeighted), each unique row
/// inserted once with its multiplicity as the count; recursive
/// conditional FP-tree projection with perfect-extension pruning
/// generates the closed-set candidates {generator + perfect
/// extensions}; a final subsumption filter (same support, proper
/// superset) leaves exactly the closed sets. Same output contract as
/// the intersection miners.
/// `stats` (optional) receives weighted_transactions (rows after
/// merging), conditional_trees (conditional FP-tree projections built),
/// candidate_sets (candidates before the closed filter), subsume_checks
/// (filter comparisons), and sets_reported; output-neutral.
Status MineClosedFpClose(const TransactionDatabase& db,
                         const FpCloseOptions& options,
                         const ClosedSetCallback& callback,
                         MinerStats* stats = nullptr);

}  // namespace fim

#endif  // FIM_ENUMERATION_FPCLOSE_H_

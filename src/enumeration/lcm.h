#ifndef FIM_ENUMERATION_LCM_H_
#define FIM_ENUMERATION_LCM_H_

#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
}  // namespace obs

/// Options of the LCM baseline.
struct LcmOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Worker threads. > 1 fans the independent first-level subtrees of
  /// the prefix-preserving extension out to a thread pool; the output
  /// (and its order) is identical to the sequential run.
  unsigned num_threads = 1;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// database, its vertical view and the per-depth occurrence buckets. Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Closed frequent item set mining with LCM (Uno et al.): depth-first
/// prefix-preserving closure (PPC) extension. Each closed set is
/// generated exactly once from its core prefix, so no repository or
/// post-filter is needed and memory stays linear in the input.
///
/// The database is reduced first (RecodeWeighted): items are recoded
/// most frequent first, infrequent ones dropped, and identical rows
/// merged into weighted transactions. Each node then makes one occurrence-deliver
/// pass over the items above its core in its covering rows, which
/// yields every candidate's occurrence list and weighted support at
/// once. A candidate's closure is probed against the vertical view of
/// the reduced rows, and it is rejected as soon as an item below it and
/// outside the prefix covers all its occurrences. Same output contract
/// as the other miners.
///
/// `stats` (optional) receives weighted_transactions (rows after
/// merging), extension_checks (candidates delivered: items above the
/// core met in the covering rows, outside the prefix), closure_checks
/// (closures evaluated, early PPC rejects included) and sets_reported,
/// aggregated over all workers; output-neutral.
Status MineClosedLcm(const TransactionDatabase& db, const LcmOptions& options,
                     const ClosedSetCallback& callback,
                     MinerStats* stats = nullptr);

}  // namespace fim

#endif  // FIM_ENUMERATION_LCM_H_

#ifndef FIM_ISTA_ISTA_H_
#define FIM_ISTA_ISTA_H_

#include <cstddef>

#include "common/status.h"
#include "data/itemset.h"
#include "data/recode.h"
#include "data/transaction_database.h"
#include "obs/miner_stats.h"
#include "obs/trace.h"

namespace fim {

namespace obs {
class MemoryBreakdown;
}  // namespace obs

/// Options of the IsTa miner (cumulative transaction intersection with a
/// prefix-tree repository, paper §3.2-§3.4). IsTa is one sequential pass
/// on the calling thread.
struct IstaOptions {
  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// Item code assignment; the paper found ascending frequency fastest.
  ItemOrder item_order = ItemOrder::kFrequencyAscending;

  /// Transaction processing order; the paper found increasing size
  /// fastest.
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// Item elimination (paper §3.2): drop globally infrequent items up
  /// front and periodically remove items that can no longer reach the
  /// minimum support from the repository. Never changes the output.
  bool item_elimination = true;

  /// Tree pruning is triggered when the node count exceeds this threshold
  /// (the threshold then doubles). Only relevant with item_elimination.
  std::size_t prune_node_threshold = std::size_t{1} << 16;

  /// Merge identical (recoded) transactions into a single weighted
  /// transaction before mining, wherever they occur in the input (a
  /// hash merge, under every transaction order). Never changes the
  /// output; a substantial win when rows repeat, e.g. on discretized
  /// gene-expression data or market baskets. Off, every row is mined
  /// with weight 1.
  bool merge_duplicate_transactions = true;

  /// Optional memory attribution (obs/memory.h): records the weighted
  /// database, the remaining-occurrence table and the prefix tree before
  /// the report. Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

// Execution statistics (optional output of MineClosedIsta): the unified
// MinerStats snapshot (obs/miner_stats.h) under its historical name. The
// populated fields are isect_steps, peak_nodes, final_nodes, prune_calls,
// weighted_transactions, and sets_reported.

/// Mines all closed frequent item sets of `db` with the IsTa algorithm
/// and reports each exactly once through `callback` (items in ascending
/// original ids). The empty set is never reported. Returns
/// InvalidArgument for min_support == 0.
///
/// `stats` (optional) receives the execution statistics; `trace`
/// (optional) receives the phase spans `recode` (item frequencies and
/// code assignment), `dedup` (the one pass that maps the rows, merges
/// identical ones and orders them: RecodeWeighted), `shard-mine` (with
/// one `prune` child when item elimination pruned the tree) and
/// `report`, plus a `nodes` counter sample after every prune on an
/// attached timeline lane. Both are output-neutral: the mining result
/// is bit-identical whether they are requested or not.
Status MineClosedIsta(const TransactionDatabase& db, const IstaOptions& options,
                      const ClosedSetCallback& callback,
                      IstaStats* stats = nullptr,
                      obs::Trace* trace = nullptr);

}  // namespace fim

#endif  // FIM_ISTA_ISTA_H_

#ifndef FIM_API_MINER_H_
#define FIM_API_MINER_H_

#include <string>
#include <string_view>
#include <vector>

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

/// All closed-set mining algorithms of the library.
enum class Algorithm {
  kIsta,            // cumulative intersection, prefix-tree repository (§3.2-3.3)
  kCarpenterLists,  // transaction-set enumeration, tid lists (§3.1.1)
  kCarpenterTable,  // transaction-set enumeration, matrix (§3.1.2)
  kFlatCumulative,  // cumulative intersection, flat repository (baseline)
  kFpClose,         // item set enumeration via FP-growth (baseline)
  kLcm,             // item set enumeration via closure extension (baseline)
  kCharm,           // item set enumeration via tidset properties (baseline)
  kTransposed,      // closed tid sets over the transpose, mapped back
                    // through the Galois bijection (Rioult et al. [17])
  kCobbler,         // Carpenter rows with column-enumeration switch-over
                    // (Pan et al., SSDBM'04)
};

/// Stable lower-case name ("ista", "carpenter-lists", ...).
const char* AlgorithmName(Algorithm algorithm);

/// Parses an algorithm name as produced by AlgorithmName.
Result<Algorithm> ParseAlgorithm(std::string_view name);

/// Every Algorithm value, in declaration order.
const std::vector<Algorithm>& AllAlgorithms();

/// Unified options for MineClosed. Fields that an algorithm does not use
/// are ignored (e.g. transaction order for FP-close / LCM).
struct MinerOptions {
  Algorithm algorithm = Algorithm::kIsta;

  /// Absolute minimum support; must be >= 1.
  Support min_support = 1;

  /// §3.1.1/§3.2 item elimination for the intersection miners.
  bool item_elimination = true;

  /// §3.4 orders for the intersection miners.
  ItemOrder item_order = ItemOrder::kFrequencyAscending;
  TransactionOrder transaction_order = TransactionOrder::kSizeAscending;

  /// Worker threads for LCM, which fans out first-level subtrees; its
  /// output is identical to the sequential run for every thread count.
  /// Every other algorithm, IsTa included, runs on the calling thread
  /// and ignores it.
  unsigned num_threads = 1;

  /// Optional memory attribution (obs/memory.h): every algorithm
  /// records the self-measured byte breakdown of its major structures
  /// (IsTa prefix trees, tid lists, Carpenter matrices, duplicate
  /// repositories, the recoded database) at the moments they are
  /// largest. Feeds the `memory` stats section, fim-prof and
  /// the bench mem payloads. Output-neutral; must outlive the call.
  obs::MemoryBreakdown* memory = nullptr;
};

/// Mines the closed frequent item sets of `db` with the selected
/// algorithm. Every algorithm produces the identical output: each closed
/// frequent item set exactly once, items ascending by original id; the
/// empty set is never reported.
///
/// `stats` (optional) receives the uniform MinerStats snapshot — every
/// algorithm fills the fields of its family (see obs/miner_stats.h and
/// docs/OBSERVABILITY.md) plus sets_reported. `trace` (optional)
/// receives phase spans: a "mine" span for every algorithm, with IsTa's
/// internal phases (recode, dedup, shard-mine, report) nested
/// below it; a timeline lane attached to the trace receives the same
/// phases as begin/end events. Instrumentation is output-neutral: the
/// mined sets and their order are bit-identical whether stats/trace
/// are requested or not, at every thread count.
Status MineClosed(const TransactionDatabase& db, const MinerOptions& options,
                  const ClosedSetCallback& callback,
                  MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

/// Convenience wrapper collecting the output in canonical order.
Result<std::vector<ClosedItemset>> MineClosedCollect(
    const TransactionDatabase& db, const MinerOptions& options,
    MinerStats* stats = nullptr, obs::Trace* trace = nullptr);

}  // namespace fim

#endif  // FIM_API_MINER_H_

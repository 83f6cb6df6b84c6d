#ifndef FIM_STREAM_STREAM_MINER_H_
#define FIM_STREAM_STREAM_MINER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "data/itemset.h"
#include "ista/prefix_tree.h"

namespace fim {

namespace obs {
class Trace;
}  // namespace obs

/// Configuration of a StreamMiner. Two modes:
///
///  * **Landmark** (`pane_size == 0 && window_panes == 0`): every snapshot
///    covers the whole stream since the start (or the restored
///    checkpoint). This is the cumulative intersection scheme of the
///    paper run online, with duplicate-run merging into weighted
///    Figure-2 additions.
///
///  * **Pane-based sliding window** (`pane_size > 0 && window_panes > 0`):
///    the stream is chunked into tumbling panes of `pane_size`
///    transactions. A snapshot covers the currently filling pane plus
///    the `window_panes - 1` most recent complete panes — between
///    `(window_panes - 1) * pane_size + 1` and
///    `window_panes * pane_size` transactions as the pane fills.
///    Expiring a pane simply drops its repository; no deletion support
///    in the prefix tree is needed, and every snapshot is exact.
struct StreamMinerOptions {
  /// Capacity of the item universe; every ingested item id must be below
  /// it. Must be > 0.
  std::size_t max_items = 0;

  /// Transactions per tumbling pane; 0 selects landmark mode.
  std::size_t pane_size = 0;

  /// Number of live panes a snapshot covers; 0 selects landmark mode.
  /// Must be > 0 exactly when pane_size > 0.
  std::size_t window_panes = 0;

  /// Merge runs of identical consecutive transactions into one weighted
  /// AddTransaction. Never changes snapshots (a weighted addition equals
  /// that many unit additions); a substantial win on bursty streams.
  bool merge_duplicate_transactions = true;

  /// Optional aggregated phase trace (obs/trace.h): rotate / query
  /// (query-freeze, query-merge, query-compact, query-report) /
  /// checkpoint spans; a timeline lane attached to the trace also gets
  /// a "seal" instant and a "mem.sealed_mib" counter sample per sealed
  /// segment. Thread contract: obs::Trace is thread-confined, so only
  /// set this when a single thread performs every miner call (the
  /// fim-stream driver does). Output-neutral; must outlive the miner.
  obs::Trace* trace = nullptr;
};

/// Snapshot of a StreamMiner's execution counters (all cumulative since
/// construction or checkpoint restore, except the two gauges).
struct StreamStats {
  std::uint64_t transactions_ingested = 0;  // raw AddTransaction calls
  std::uint64_t weighted_additions = 0;     // Figure-2 adds after dup-merge
  std::uint64_t panes_rotated = 0;          // completed tumbling panes
  std::uint64_t panes_expired = 0;          // panes dropped out of the window
  std::uint64_t queries = 0;                // snapshot queries answered
  std::uint64_t snapshot_merges = 0;        // tree merges run for snapshots
  std::uint64_t segments_compacted = 0;     // segments folded by compaction
  std::uint64_t checkpoint_bytes_written = 0;
  std::uint64_t checkpoint_bytes_read = 0;
  std::uint64_t live_segments = 0;          // gauge: sealed segments + live
  std::uint64_t repository_nodes = 0;       // gauge: nodes across all trees

  /// The nine cumulative counters (not the gauges) as
  /// ("stream.<name>", value) pairs in name order — the `stream.*`
  /// entries of the stats report and the sampler's JSONL lines.
  std::vector<std::pair<const char*, std::uint64_t>> Counters() const;
};

/// Continuous closed-item-set mining over a transaction stream — the
/// online form of the paper's cumulative intersection scheme, built
/// entirely from immutable IstaPrefixTree segments plus one writer-owned
/// live tree:
///
///  * `AddTransaction` appends to the live tree (weighted, after
///    duplicate-run merging). When a pane completes, the live tree is
///    sealed into an immutable segment and a fresh live tree starts;
///    panes that leave the window are dropped.
///  * `Query` seals the live tree under the ingest lock (cheap pointer
///    moves — the only time a reader blocks the writer is this pane
///    rotation), then merges the covered segments *outside* the lock
///    with the associative `IstaPrefixTree::Merge`, which reproduces the
///    repository of the concatenated stream exactly. Afterwards it
///    installs per-pane merged trees back (compaction), so a later query
///    folds one repository per covered pane instead of one per seal.
///
/// Thread-safety: any number of threads may call any method
/// concurrently. Sealed segments are immutable and shared by
/// `shared_ptr`, so queries and checkpoints read them without
/// synchronization while ingest proceeds into the new live tree.
///
/// Like IncrementalClosedSetMiner (now a wrapper over landmark mode), no
/// global item statistics exist up front, so the repositories keep all
/// closed sets and `min_support` only filters queries.
class StreamMiner {
 public:
  /// Checks the option invariants (max_items > 0; pane_size and
  /// window_panes both zero or both positive) with FIM_CHECK.
  explicit StreamMiner(const StreamMinerOptions& options);

  StreamMiner(const StreamMiner&) = delete;
  StreamMiner& operator=(const StreamMiner&) = delete;

  /// Ingests one transaction (any order, duplicates allowed; normalized
  /// internally). InvalidArgument if empty after normalization,
  /// OutOfRange if an item id reaches max_items.
  Status AddTransaction(std::vector<ItemId> items) FIM_EXCLUDES(mutex_);

  /// Reports the closed item sets with support >= min_support (>= 1)
  /// over the current landmark history or window, items ascending. The
  /// snapshot is exact: identical to batch-mining the covered
  /// transaction multiset. Safe to call while other threads ingest; the
  /// callback runs without any lock held.
  Status Query(Support min_support, const ClosedSetCallback& callback)
      FIM_EXCLUDES(mutex_);

  /// Convenience: collect the current snapshot in canonical order.
  Result<std::vector<ClosedItemset>> QueryCollect(Support min_support);

  /// Serializes the full miner state (segments, live tree, pending
  /// duplicate run, counters) as one `fim-stream-v1` checkpoint, so a
  /// later Restore continues the stream with output bit-identical to an
  /// uninterrupted run. Ingest may proceed concurrently: the state is
  /// snapshotted under the lock (sealing the live tree), then written
  /// outside it.
  Status Checkpoint(const std::string& path) FIM_EXCLUDES(mutex_);
  Status CheckpointTo(std::ostream& out) FIM_EXCLUDES(mutex_);

  /// Reconstructs a miner from a checkpoint. Corrupted or truncated
  /// input yields a clean InvalidArgument (every embedded tree blob is
  /// invariant-checked). `trace` plays the role of
  /// StreamMinerOptions::trace for the restored miner (same contract).
  static Result<std::unique_ptr<StreamMiner>> Restore(
      const std::string& path, obs::Trace* trace = nullptr);
  static Result<std::unique_ptr<StreamMiner>> RestoreFrom(
      std::istream& in, obs::Trace* trace = nullptr);

  /// Raw transactions ingested so far (including before a checkpoint
  /// restore; duplicates counted individually).
  std::uint64_t NumTransactions() const FIM_EXCLUDES(mutex_);

  /// Index of the currently filling pane (== NumTransactions() /
  /// pane_size in window mode; always 0 in landmark mode).
  std::uint64_t CurrentPaneIndex() const FIM_EXCLUDES(mutex_);

  /// Total repository nodes across all live segments and the live tree
  /// (memory diagnostics; may shrink when panes expire or queries
  /// compact segments).
  std::size_t NodeCount() const FIM_EXCLUDES(mutex_);

  /// Current counter snapshot.
  StreamStats Stats() const FIM_EXCLUDES(mutex_);

  /// Exact heap footprint as a breakdown named "stream": the live tree,
  /// one child per sealed segment ("segment-<i>", pane-tagged names
  /// would collide after compaction), and the pending duplicate run.
  /// O(segments); safe to call while other threads ingest.
  obs::MemoryComponent ApproxMemoryUsage() const FIM_EXCLUDES(mutex_);

  const StreamMinerOptions& options() const { return options_; }

 private:
  /// One sealed, immutable repository covering a slice of a pane (a
  /// whole pane once compacted). `pane` orders segments; in landmark
  /// mode every segment belongs to the single eternal pane 0.
  struct Segment {
    std::uint64_t pane = 0;
    std::shared_ptr<const IstaPrefixTree> tree;
  };

  /// Everything a checkpoint captures, copied out under the lock.
  struct FrozenState {
    std::vector<Segment> segments;
    std::vector<ItemId> pending_items;
    Support pending_weight = 0;
    std::uint64_t ingested = 0;
    std::uint64_t fill = 0;
    std::uint64_t current_pane = 0;
    StreamStats counters;
  };

  explicit StreamMiner(const StreamMinerOptions& options, bool restored);

  /// Applies the pending duplicate run to the live tree (weighted
  /// Figure-2 addition).
  void FlushPendingLocked() FIM_REQUIRES(mutex_);

  /// Moves a non-empty live tree into an immutable segment of the
  /// current pane and starts a fresh live tree.
  void SealLiveLocked() FIM_REQUIRES(mutex_);

  /// Completes the current pane: advances the pane index and drops the
  /// segments that left the window.
  void RotateLocked() FIM_REQUIRES(mutex_);

  /// Copies the checkpoint/query state out.
  FrozenState FreezeLocked() FIM_REQUIRES(mutex_);

  const StreamMinerOptions options_;

  mutable Mutex mutex_{LockRank::kStreamMiner, "StreamMiner"};
  // Sealed segments, pane non-decreasing. The vector is guarded; the
  // trees behind the shared_ptrs are immutable and read lock-free.
  std::vector<Segment> segments_ FIM_GUARDED_BY(mutex_);
  // Writer-owned current tree.
  std::unique_ptr<IstaPrefixTree> live_ FIM_GUARDED_BY(mutex_);
  // Current duplicate run (weight 0 = no pending run).
  std::vector<ItemId> pending_items_ FIM_GUARDED_BY(mutex_);
  Support pending_weight_ FIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t ingested_ FIM_GUARDED_BY(mutex_) = 0;
  // Transactions in the current pane / index of the filling pane.
  std::uint64_t fill_ FIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t current_pane_ FIM_GUARDED_BY(mutex_) = 0;
  StreamStats counters_ FIM_GUARDED_BY(mutex_);
};

}  // namespace fim

#endif  // FIM_STREAM_STREAM_MINER_H_

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
#include "obs/memory.h"

namespace fim {

namespace obs {
class Trace;
}  // namespace obs

/// Configuration of a StreamMiner. Two modes:
///
///  * **Landmark** (`pane_size == 0 && window_panes == 0`): every snapshot
///    covers the whole stream since the start (or the restored
///    checkpoint).
///
///  * **Pane-based sliding window** (`pane_size > 0 && window_panes > 0`):
///    the stream is chunked into tumbling panes of `pane_size`
///    transactions. A snapshot covers the currently filling pane plus
///    the `window_panes - 1` most recent complete panes — between
///    `(window_panes - 1) * pane_size + 1` and
///    `window_panes * pane_size` transactions as the pane fills.
///    Expiring a pane simply drops its rows, and every snapshot is exact.
struct StreamMinerOptions {
  /// Capacity of the item universe; every ingested item id must be below
  /// it. Must be > 0.
  std::size_t max_items = 0;

  /// Transactions per tumbling pane; 0 selects landmark mode.
  std::size_t pane_size = 0;

  /// Number of live panes a snapshot covers; 0 selects landmark mode.
  /// Must be > 0 exactly when pane_size > 0.
  std::size_t window_panes = 0;

  /// Optional aggregated phase trace (obs/trace.h): rotate / query
  /// (query-freeze, then the IsTa phases recode, dedup, shard-mine and
  /// report) / checkpoint spans; a timeline lane attached to the trace
  /// also gets a "seal" instant and a "mem.sealed_mib" counter sample
  /// per sealed block. Thread contract: obs::Trace is thread-confined,
  /// so only set this when a single thread performs every miner call
  /// (the fim-stream driver does). Output-neutral; must outlive the
  /// miner.
  obs::Trace* trace = nullptr;
};

/// Snapshot of a StreamMiner's execution counters (all cumulative since
/// construction or checkpoint restore).
struct StreamStats {
  std::uint64_t transactions_ingested = 0;  // raw AddTransaction calls
  std::uint64_t panes_rotated = 0;          // completed tumbling panes
  std::uint64_t panes_expired = 0;          // panes dropped out of the window
  std::uint64_t queries = 0;                // snapshot queries answered
  std::uint64_t checkpoint_bytes_written = 0;
  std::uint64_t checkpoint_bytes_read = 0;

  // Always 0. The miner no longer keeps prefix trees, so it makes no
  // weighted additions, tree merges, compactions or repository nodes.
  // The fields remain because perfbench/fim_perfbench.cc, whose output
  // schema is fixed, still reads them; nothing else does.
  std::uint64_t weighted_additions = 0;
  std::uint64_t snapshot_merges = 0;
  std::uint64_t segments_compacted = 0;
  std::uint64_t repository_nodes = 0;

  /// The six live counters as ("stream.<name>", value) pairs in name
  /// order — the `stream.*` entries of the stats report and the
  /// sampler's JSONL lines.
  std::vector<std::pair<const char*, std::uint64_t>> Counters() const;
};

/// Continuous closed-item-set mining over a transaction stream. The
/// miner keeps the covered rows, not a repository:
///
///  * `AddTransaction` appends to the writer-owned filling block. When a
///    pane completes, the block is sealed (a pointer move) into an
///    immutable shared block tagged with its pane; panes that leave the
///    window are dropped.
///  * `Query` seals the filling block under the ingest lock (the only
///    time a reader blocks the writer), then concatenates the covered
///    blocks *outside* the lock and batch-mines them with
///    `MineClosedIsta` at the query's minimum support — so the snapshot
///    gets IsTa's item elimination, duplicate merging and size ordering
///    (paper §3.2-§3.4).
///
/// Thread-safety: any number of threads may call any method
/// concurrently. Sealed blocks are immutable and shared by `shared_ptr`,
/// so queries and checkpoints read them without synchronization while
/// ingest proceeds into a new filling block.
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
  /// snapshot is exact: it is batch IsTa over the covered transaction
  /// multiset. Safe to call while other threads ingest; the callback
  /// runs without any lock held.
  Status Query(Support min_support, const ClosedSetCallback& callback)
      FIM_EXCLUDES(mutex_);

  /// Convenience: collect the current snapshot in canonical order.
  Result<std::vector<ClosedItemset>> QueryCollect(Support min_support);

  /// Serializes the full miner state (the covered rows per pane and the
  /// counters) as one `fim-stream-v2` checkpoint, so a later Restore
  /// continues the stream with output bit-identical to an uninterrupted
  /// run. Ingest may proceed concurrently: the state is snapshotted
  /// under the lock (sealing the filling block), then written outside
  /// it.
  Status Checkpoint(const std::string& path) FIM_EXCLUDES(mutex_);
  Status CheckpointTo(std::ostream& out) FIM_EXCLUDES(mutex_);

  /// Reconstructs a miner from a checkpoint. Corrupted or truncated
  /// input, and `fim-stream-v1` files, yield a clean InvalidArgument.
  /// `trace` plays the role of StreamMinerOptions::trace for the
  /// restored miner (same contract).
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

  /// Current counter snapshot.
  StreamStats Stats() const FIM_EXCLUDES(mutex_);

  /// Exact heap footprint as a breakdown named "stream": the filling
  /// rows, one child per sealed block ("block-<i>"; in landmark mode
  /// every block belongs to pane 0, so pane-tagged names would collide)
  /// and the block list. O(blocks); safe to call while other threads
  /// ingest.
  obs::MemoryComponent ApproxMemoryUsage() const FIM_EXCLUDES(mutex_);

  const StreamMinerOptions& options() const { return options_; }

 private:
  using Rows = std::vector<std::vector<ItemId>>;

  /// One sealed, immutable run of rows of a pane. `pane` orders blocks;
  /// in landmark mode every block belongs to the single eternal pane 0.
  /// `bytes` is the heap footprint of the rows, fixed at sealing.
  struct Block {
    std::uint64_t pane = 0;
    std::shared_ptr<const Rows> rows;
    std::size_t bytes = 0;
  };

  /// Everything a checkpoint captures, copied out under the lock.
  struct FrozenState {
    std::vector<Block> blocks;
    std::uint64_t ingested = 0;
    std::uint64_t fill = 0;
    std::uint64_t current_pane = 0;
    StreamStats counters;
  };

  /// Heap bytes of a row list (capacities: spine plus every row).
  static std::size_t RowBytes(const Rows& rows);

  /// RowBytes(filling_) in O(1).
  std::size_t FillingBytesLocked() const FIM_REQUIRES(mutex_);

  /// Moves a non-empty filling block into an immutable block of the
  /// current pane and starts a fresh one.
  void SealLocked() FIM_REQUIRES(mutex_);

  /// Completes the current pane: advances the pane index and drops the
  /// blocks that left the window.
  void RotateLocked() FIM_REQUIRES(mutex_);

  /// Seals the filling block and copies the checkpoint state out.
  FrozenState FreezeLocked() FIM_REQUIRES(mutex_);

  const StreamMinerOptions options_;

  mutable Mutex mutex_{LockRank::kStreamMiner, "StreamMiner"};
  // Sealed blocks, pane non-decreasing. The vector is guarded; the rows
  // behind the shared_ptrs are immutable and read lock-free.
  std::vector<Block> blocks_ FIM_GUARDED_BY(mutex_);
  // Writer-owned rows of the current pane not sealed yet, and the sum of
  // their capacities in bytes.
  Rows filling_ FIM_GUARDED_BY(mutex_);
  std::size_t filling_item_bytes_ FIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t ingested_ FIM_GUARDED_BY(mutex_) = 0;
  // Transactions in the current pane / index of the filling pane.
  std::uint64_t fill_ FIM_GUARDED_BY(mutex_) = 0;
  std::uint64_t current_pane_ FIM_GUARDED_BY(mutex_) = 0;
  StreamStats counters_ FIM_GUARDED_BY(mutex_);
};

}  // namespace fim

#endif  // FIM_STREAM_STREAM_MINER_H_

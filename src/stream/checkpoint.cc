// Checkpoint/restore of a StreamMiner — the `fim-stream-v1` container
// format. Layout (little-endian, see docs/STREAMING.md):
//
//   char[4] "FIMS", u32 version (1)
//   u64 max_items, u64 pane_size, u64 window_panes, u8 merge_duplicates
//   u64 transactions_ingested, u64 fill, u64 current_pane
//   u64 weighted_additions, u64 panes_rotated, u64 panes_expired,
//   u64 queries, u64 snapshot_merges, u64 segments_compacted,
//   u64 checkpoint_bytes_written, u64 checkpoint_bytes_read
//   u32 pending_len, ItemId[pending_len], u32 pending_weight
//   u32 num_segments, then per segment: u64 pane + one fim-tree-v1 blob
//   char[4] "SMND" end marker
//
// The embedded tree blobs are exact node-layout dumps (see
// ista/tree_io.cc), so a restored miner continues the stream with output
// bit-identical to an uninterrupted run. Restore validates everything —
// header coherence, pane bookkeeping, pending-run shape, every tree's
// structural invariants, and the end marker — and returns a clean
// InvalidArgument on any corruption or truncation.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "data/binary_io.h"
#include "obs/memory.h"
#include "obs/trace.h"
#include "stream/stream_miner.h"

namespace fim {

namespace {

constexpr char kCheckpointMagic[4] = {'F', 'I', 'M', 'S'};
constexpr char kCheckpointEnd[4] = {'S', 'M', 'N', 'D'};
constexpr uint32_t kCheckpointVersion = 1;

/// Backstops against a corrupt header driving an unbounded read loop or
/// a giant up-front allocation (a restored miner allocates one
/// transaction-flag byte per item in its live tree before anything is
/// validated, so the item bound must match fim-tree-v1's
/// kMaxSerializedItems; 16M items = 16 MB).
constexpr uint32_t kMaxSegments = uint32_t{1} << 20;
constexpr uint64_t kMaxCheckpointItems = uint64_t{1} << 24;

using io::ReadPod;
using io::WritePod;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("fim-stream-v1 checkpoint: " + what);
}

}  // namespace

Status StreamMiner::CheckpointTo(std::ostream& out) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kCheckpoint);
  obs::Span checkpoint_span(options_.trace, "checkpoint");
  FrozenState frozen;
  {
    const MutexLock lock(mutex_);
    frozen = FreezeLocked();
  }
  // Everything below writes immutable shared segments and private
  // copies, so ingest and queries proceed concurrently with the write.
  const std::streampos begin = out.tellp();
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WritePod(out, kCheckpointVersion);
  WritePod(out, static_cast<uint64_t>(options_.max_items));
  WritePod(out, static_cast<uint64_t>(options_.pane_size));
  WritePod(out, static_cast<uint64_t>(options_.window_panes));
  WritePod(out,
           static_cast<uint8_t>(options_.merge_duplicate_transactions ? 1 : 0));
  WritePod(out, frozen.ingested);
  WritePod(out, frozen.fill);
  WritePod(out, frozen.current_pane);
  WritePod(out, frozen.counters.weighted_additions);
  WritePod(out, frozen.counters.panes_rotated);
  WritePod(out, frozen.counters.panes_expired);
  WritePod(out, frozen.counters.queries);
  WritePod(out, frozen.counters.snapshot_merges);
  WritePod(out, frozen.counters.segments_compacted);
  WritePod(out, frozen.counters.checkpoint_bytes_written);
  WritePod(out, frozen.counters.checkpoint_bytes_read);
  WritePod(out, static_cast<uint32_t>(frozen.pending_items.size()));
  for (ItemId item : frozen.pending_items) WritePod(out, item);
  WritePod(out, static_cast<uint32_t>(frozen.pending_weight));
  WritePod(out, static_cast<uint32_t>(frozen.segments.size()));
  for (const Segment& segment : frozen.segments) {
    WritePod(out, segment.pane);
    Status status = segment.tree->SerializeTo(out);
    if (!status.ok()) return status;
  }
  out.write(kCheckpointEnd, sizeof(kCheckpointEnd));
  out.flush();
  if (!out) return Status::IoError("write failure while checkpointing");
  const std::streampos end = out.tellp();
  const std::uint64_t bytes =
      (begin >= 0 && end >= 0 && end > begin)
          ? static_cast<std::uint64_t>(end - begin)
          : 0;
  const MutexLock lock(mutex_);
  counters_.checkpoint_bytes_written += bytes;
  return Status::OK();
}

Status StreamMiner::Checkpoint(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return CheckpointTo(out);
}

Result<std::unique_ptr<StreamMiner>> StreamMiner::RestoreFrom(
    std::istream& in, obs::Trace* trace) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kCheckpoint);
  const std::streampos begin = in.tellg();
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Corrupt("bad magic (not a stream checkpoint)");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Corrupt("truncated header");
  if (version != kCheckpointVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  uint64_t max_items = 0;
  uint64_t pane_size = 0;
  uint64_t window_panes = 0;
  uint8_t merge_duplicates = 0;
  uint64_t ingested = 0;
  uint64_t fill = 0;
  uint64_t current_pane = 0;
  if (!ReadPod(in, &max_items) || !ReadPod(in, &pane_size) ||
      !ReadPod(in, &window_panes) || !ReadPod(in, &merge_duplicates) ||
      !ReadPod(in, &ingested) || !ReadPod(in, &fill) ||
      !ReadPod(in, &current_pane)) {
    return Corrupt("truncated header");
  }
  if (max_items == 0 || max_items > kMaxCheckpointItems) {
    return Corrupt("implausible item universe size " +
                   std::to_string(max_items));
  }
  if ((pane_size == 0) != (window_panes == 0)) {
    return Corrupt("pane_size/window_panes must select one mode");
  }
  if (merge_duplicates > 1) return Corrupt("corrupt merge_duplicates flag");
  if (pane_size > 0) {
    if (current_pane != ingested / pane_size || fill != ingested % pane_size) {
      return Corrupt("pane bookkeeping inconsistent with stream position");
    }
  } else if (fill != 0 || current_pane != 0) {
    return Corrupt("landmark checkpoint carries pane bookkeeping");
  }

  StreamStats counters;
  counters.transactions_ingested = ingested;
  if (!ReadPod(in, &counters.weighted_additions) ||
      !ReadPod(in, &counters.panes_rotated) ||
      !ReadPod(in, &counters.panes_expired) ||
      !ReadPod(in, &counters.queries) ||
      !ReadPod(in, &counters.snapshot_merges) ||
      !ReadPod(in, &counters.segments_compacted) ||
      !ReadPod(in, &counters.checkpoint_bytes_written) ||
      !ReadPod(in, &counters.checkpoint_bytes_read)) {
    return Corrupt("truncated counters");
  }

  uint32_t pending_len = 0;
  if (!ReadPod(in, &pending_len)) return Corrupt("truncated pending run");
  if (pending_len > max_items) return Corrupt("pending run longer than universe");
  std::vector<ItemId> pending_items(pending_len);
  for (uint32_t k = 0; k < pending_len; ++k) {
    if (!ReadPod(in, &pending_items[k])) return Corrupt("truncated pending run");
  }
  uint32_t pending_weight = 0;
  if (!ReadPod(in, &pending_weight)) return Corrupt("truncated pending run");
  if ((pending_len == 0) != (pending_weight == 0)) {
    return Corrupt("pending run and weight disagree");
  }
  if (pending_len > 0) {
    if (!std::is_sorted(pending_items.begin(), pending_items.end()) ||
        std::adjacent_find(pending_items.begin(), pending_items.end()) !=
            pending_items.end() ||
        pending_items.back() >= max_items) {
      return Corrupt("pending run not a normalized transaction");
    }
    if (pending_weight > ingested) {
      return Corrupt("pending weight exceeds the stream length");
    }
  }

  uint32_t num_segments = 0;
  if (!ReadPod(in, &num_segments)) return Corrupt("truncated segment table");
  if (num_segments > kMaxSegments) {
    return Corrupt("implausible segment count " + std::to_string(num_segments));
  }
  const uint64_t oldest_live =
      (window_panes > 0 && current_pane >= window_panes)
          ? current_pane - window_panes + 1
          : 0;
  std::vector<Segment> segments;
  segments.reserve(num_segments);
  uint64_t previous_pane = 0;
  for (uint32_t k = 0; k < num_segments; ++k) {
    uint64_t pane = 0;
    if (!ReadPod(in, &pane)) return Corrupt("truncated segment table");
    if (pane > current_pane || pane < oldest_live || pane < previous_pane) {
      return Corrupt("segment pane " + std::to_string(pane) +
                     " outside the live window or out of order");
    }
    if (window_panes == 0 && pane != 0) {
      return Corrupt("landmark segment carries a pane index");
    }
    previous_pane = pane;
    auto tree = IstaPrefixTree::Deserialize(in);
    if (!tree.ok()) return tree.status();
    if (tree.value().NumItems() != max_items) {
      return Corrupt("segment item universe disagrees with the header");
    }
    if (tree.value().StepCount() == 0) {
      return Corrupt("empty segment repository");
    }
    segments.push_back(
        Segment{pane, std::make_shared<const IstaPrefixTree>(
                          std::move(tree).value())});
  }
  char end_marker[4];
  in.read(end_marker, sizeof(end_marker));
  if (!in || std::memcmp(end_marker, kCheckpointEnd, sizeof(end_marker)) != 0) {
    return Corrupt("missing end marker (truncated checkpoint)");
  }

  StreamMinerOptions options;
  options.max_items = static_cast<std::size_t>(max_items);
  options.pane_size = static_cast<std::size_t>(pane_size);
  options.window_panes = static_cast<std::size_t>(window_panes);
  options.merge_duplicate_transactions = merge_duplicates != 0;
  options.trace = trace;
  std::unique_ptr<StreamMiner> miner(
      new StreamMiner(options, /*restored=*/true));
  const std::streampos end = in.tellg();
  const std::uint64_t bytes =
      (begin >= 0 && end >= 0 && end > begin)
          ? static_cast<std::uint64_t>(end - begin)
          : 0;
  counters.checkpoint_bytes_read += bytes;
  {
    // The miner is not shared yet; the lock exists to satisfy the
    // guarded-field contract (and costs one uncontended acquisition).
    const MutexLock lock(miner->mutex_);
    miner->segments_ = std::move(segments);
    miner->pending_items_ = std::move(pending_items);
    miner->pending_weight_ = static_cast<Support>(pending_weight);
    miner->ingested_ = ingested;
    miner->fill_ = fill;
    miner->current_pane_ = current_pane;
    miner->counters_ = counters;
  }
  return miner;
}

Result<std::unique_ptr<StreamMiner>> StreamMiner::Restore(
    const std::string& path, obs::Trace* trace) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return RestoreFrom(in, trace);
}

}  // namespace fim

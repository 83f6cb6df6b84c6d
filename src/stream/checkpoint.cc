// Checkpoint/restore of a StreamMiner — the `fim-stream-v2` container
// format. Layout (little-endian, see docs/STREAMING.md):
//
//   char[4] "FIMS", u32 version (2)
//   u64 max_items, u64 pane_size, u64 window_panes
//   u64 transactions_ingested, u64 fill, u64 current_pane
//   u64 panes_rotated, u64 panes_expired, u64 queries,
//   u64 checkpoint_bytes_written, u64 checkpoint_bytes_read
//   u32 num_panes, then per pane, oldest first:
//     u64 pane, u32 rows, then per row: u32 len, ItemId[len]
//   char[4] "SMND" end marker
//
// The panes hold exactly the rows a snapshot covers, in arrival order,
// so a restored miner continues the stream with output bit-identical to
// an uninterrupted run. Restore validates everything — header
// coherence, pane bookkeeping (every covered pane present with its row
// count), sorted duplicate-free rows below max_items, and the end
// marker — and returns a clean InvalidArgument on any corruption or
// truncation. Version 1 files held prefix-tree segments and are
// rejected by name.

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
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
constexpr uint32_t kCheckpointVersion = 2;

/// Backstop against a corrupt header claiming an absurd item universe
/// (16M items).
constexpr uint64_t kMaxCheckpointItems = uint64_t{1} << 24;

using io::ReadPod;
using io::WritePod;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("fim-stream-v2 checkpoint: " + what);
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
  // Everything below reads immutable shared blocks and private copies,
  // so ingest and queries proceed concurrently with the write. A pane's
  // blocks are adjacent; each pane becomes one record.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> panes;  // pane, rows
  for (const Block& block : frozen.blocks) {
    if (panes.empty() || panes.back().first != block.pane) {
      panes.emplace_back(block.pane, 0);
    }
    panes.back().second += block.rows->NumTransactions();
    if (panes.back().second > std::numeric_limits<uint32_t>::max()) {
      return Status::OutOfRange("pane too large for a fim-stream-v2 record");
    }
  }
  const std::streampos begin = out.tellp();
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WritePod(out, kCheckpointVersion);
  WritePod(out, static_cast<uint64_t>(options_.max_items));
  WritePod(out, static_cast<uint64_t>(options_.pane_size));
  WritePod(out, static_cast<uint64_t>(options_.window_panes));
  WritePod(out, frozen.ingested);
  WritePod(out, frozen.fill);
  WritePod(out, frozen.current_pane);
  WritePod(out, frozen.counters.panes_rotated);
  WritePod(out, frozen.counters.panes_expired);
  WritePod(out, frozen.counters.queries);
  WritePod(out, frozen.counters.checkpoint_bytes_written);
  WritePod(out, frozen.counters.checkpoint_bytes_read);
  WritePod(out, static_cast<uint32_t>(panes.size()));
  std::size_t next_block = 0;
  for (const auto& [pane, rows] : panes) {
    WritePod(out, pane);
    WritePod(out, static_cast<uint32_t>(rows));
    for (; next_block < frozen.blocks.size() &&
           frozen.blocks[next_block].pane == pane;
         ++next_block) {
      const TransactionDatabase& block = *frozen.blocks[next_block].rows;
      for (std::size_t k = 0; k < block.NumTransactions(); ++k) {
        const std::span<const ItemId> row = block.transaction(k);
        WritePod(out, static_cast<uint32_t>(row.size()));
        for (ItemId item : row) WritePod(out, item);
      }
    }
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
  if (version == 1) {
    return Corrupt(
        "version 1 (fim-stream-v1, prefix-tree segments) is no longer "
        "readable; re-create the checkpoint from the transaction stream");
  }
  if (version != kCheckpointVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  uint64_t max_items = 0;
  uint64_t pane_size = 0;
  uint64_t window_panes = 0;
  uint64_t ingested = 0;
  uint64_t fill = 0;
  uint64_t current_pane = 0;
  if (!ReadPod(in, &max_items) || !ReadPod(in, &pane_size) ||
      !ReadPod(in, &window_panes) || !ReadPod(in, &ingested) ||
      !ReadPod(in, &fill) || !ReadPod(in, &current_pane)) {
    return Corrupt("truncated header");
  }
  if (max_items == 0 || max_items > kMaxCheckpointItems) {
    return Corrupt("implausible item universe size " +
                   std::to_string(max_items));
  }
  if ((pane_size == 0) != (window_panes == 0)) {
    return Corrupt("pane_size/window_panes must select one mode");
  }
  if (pane_size > 0) {
    if (current_pane != ingested / pane_size || fill != ingested % pane_size) {
      return Corrupt("pane bookkeeping inconsistent with stream position");
    }
  } else if (fill != 0 || current_pane != 0) {
    return Corrupt("landmark checkpoint carries pane bookkeeping");
  }

  StreamStats counters;
  counters.transactions_ingested = ingested;
  if (!ReadPod(in, &counters.panes_rotated) ||
      !ReadPod(in, &counters.panes_expired) ||
      !ReadPod(in, &counters.queries) ||
      !ReadPod(in, &counters.checkpoint_bytes_written) ||
      !ReadPod(in, &counters.checkpoint_bytes_read)) {
    return Corrupt("truncated counters");
  }

  // A snapshot covers panes [oldest_live, current_pane]: every complete
  // one holds pane_size rows, the filling one `fill` (landmark: the one
  // pane 0 holds every row). Panes without rows are not written.
  const uint64_t oldest_live =
      (window_panes > 0 && current_pane >= window_panes)
          ? current_pane - window_panes + 1
          : 0;
  const uint64_t covered_rows =
      window_panes > 0 ? (current_pane - oldest_live) * pane_size + fill
                       : ingested;
  uint32_t num_panes = 0;
  if (!ReadPod(in, &num_panes)) return Corrupt("truncated pane table");
  std::vector<Block> blocks;
  std::vector<ItemId> row;  // the row being read
  uint64_t rows_read = 0;
  for (uint32_t k = 0; k < num_panes; ++k) {
    uint64_t pane = 0;
    uint32_t num_rows = 0;
    if (!ReadPod(in, &pane) || !ReadPod(in, &num_rows)) {
      return Corrupt("truncated pane table");
    }
    if (pane > current_pane || pane < oldest_live ||
        (!blocks.empty() && pane <= blocks.back().pane)) {
      return Corrupt("pane " + std::to_string(pane) +
                     " outside the live window or out of order");
    }
    const uint64_t expected_rows =
        window_panes == 0 ? ingested
                          : (pane == current_pane ? fill : pane_size);
    if (num_rows == 0 || num_rows != expected_rows) {
      return Corrupt("pane " + std::to_string(pane) + " holds " +
                     std::to_string(num_rows) + " rows, expected " +
                     std::to_string(expected_rows));
    }
    TransactionDatabase rows;
    for (uint32_t r = 0; r < num_rows; ++r) {
      uint32_t len = 0;
      if (!ReadPod(in, &len)) return Corrupt("truncated row");
      if (len == 0 || len > max_items) {
        return Corrupt("row length " + std::to_string(len) +
                       " outside [1, max_items]");
      }
      row.clear();
      for (uint32_t i = 0; i < len; ++i) {
        ItemId item = 0;
        if (!ReadPod(in, &item)) return Corrupt("truncated row");
        if (item >= max_items || (!row.empty() && item <= row.back())) {
          return Corrupt("row not a normalized transaction");
        }
        row.push_back(item);
      }
      rows.AddTransaction(row);
    }
    rows_read += num_rows;
    blocks.push_back(Block{
        pane, std::make_shared<const TransactionDatabase>(std::move(rows))});
  }
  if (rows_read != covered_rows) {
    return Corrupt("panes hold " + std::to_string(rows_read) +
                   " rows, the window covers " + std::to_string(covered_rows));
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
  options.trace = trace;
  auto miner = std::make_unique<StreamMiner>(options);
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
    miner->blocks_ = std::move(blocks);
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

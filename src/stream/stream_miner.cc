#include "stream/stream_miner.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "data/transaction_database.h"
#include "ista/ista.h"
#include "obs/trace.h"

namespace fim {

std::vector<std::pair<const char*, std::uint64_t>> StreamStats::Counters()
    const {
  return {
      {"stream.checkpoint_bytes_read", checkpoint_bytes_read},
      {"stream.checkpoint_bytes_written", checkpoint_bytes_written},
      {"stream.panes_expired", panes_expired},
      {"stream.panes_rotated", panes_rotated},
      {"stream.queries", queries},
      {"stream.transactions_ingested", transactions_ingested},
  };
}

StreamMiner::StreamMiner(const StreamMinerOptions& options)
    : options_(options) {
  FIM_CHECK(options_.max_items > 0) << "StreamMiner needs an item universe";
  FIM_CHECK((options_.pane_size == 0) == (options_.window_panes == 0))
      << "pane_size and window_panes select the mode together: both 0 "
         "(landmark) or both > 0 (sliding window), got pane_size "
      << options_.pane_size << ", window_panes " << options_.window_panes;
}

Status StreamMiner::AddTransaction(std::vector<ItemId> items) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kStream);
  NormalizeItems(&items);
  if (items.empty()) {
    return Status::InvalidArgument("empty transaction");
  }
  if (items.back() >= options_.max_items) {
    return Status::OutOfRange("item id " + std::to_string(items.back()) +
                              " exceeds the miner's item capacity");
  }
  const MutexLock lock(mutex_);
  filling_item_bytes_ += items.capacity() * sizeof(ItemId);
  filling_.push_back(std::move(items));
  ++ingested_;
  ++counters_.transactions_ingested;
  if (options_.pane_size > 0) {
    ++fill_;
    if (fill_ == options_.pane_size) {
      // The pane is complete (the transaction just ingested is its last):
      // seal it and advance the window.
      obs::Span rotate_span(options_.trace, "rotate");
      SealLocked();
      RotateLocked();
      fill_ = 0;
    }
  }
  return Status::OK();
}

std::size_t StreamMiner::RowBytes(const Rows& rows) {
  std::size_t bytes = rows.capacity() * sizeof(Rows::value_type);
  for (const std::vector<ItemId>& row : rows) {
    bytes += row.capacity() * sizeof(ItemId);
  }
  return bytes;
}

std::size_t StreamMiner::FillingBytesLocked() const {
  return filling_.capacity() * sizeof(Rows::value_type) + filling_item_bytes_;
}

void StreamMiner::SealLocked() {
  if (filling_.empty()) return;
  const std::size_t bytes = FillingBytesLocked();
  blocks_.push_back(Block{current_pane_,
                          std::make_shared<const Rows>(std::move(filling_)),
                          bytes});
  filling_.clear();
  filling_item_bytes_ = 0;
  if (options_.trace != nullptr) {
    options_.trace->Instant("seal");
    // Heap step of the rotation: the bytes that just became immutable.
    // Renders as a counter track next to the sampler's mem.* lanes.
    options_.trace->Counter("mem.sealed_mib", BytesToMib(bytes));
  }
}

void StreamMiner::RotateLocked() {
  ++current_pane_;
  ++counters_.panes_rotated;
  if (current_pane_ >= options_.window_panes) {
    // Exactly one pane leaves the window per rotation after warm-up;
    // dropping its blocks is the entire deletion story.
    const std::uint64_t oldest_live = current_pane_ - options_.window_panes + 1;
    auto it = blocks_.begin();
    while (it != blocks_.end() && it->pane < oldest_live) ++it;
    blocks_.erase(blocks_.begin(), it);
    ++counters_.panes_expired;
  }
}

Status StreamMiner::Query(Support min_support,
                          const ClosedSetCallback& callback) {
  if (min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  obs::MemDomainScope mem_domain(obs::MemDomain::kStream);
  obs::Span query_span(options_.trace, "query");
  std::vector<Block> covered;
  {
    obs::Span freeze_span(options_.trace, "query-freeze");
    const MutexLock lock(mutex_);
    ++counters_.queries;
    // Sealing is the only writer-visible cost of a query (pointer
    // moves); ingest continues into a fresh filling block while the
    // covered rows are mined below.
    SealLocked();
    covered = blocks_;
  }
  TransactionDatabase window;
  for (const Block& block : covered) {
    for (const std::vector<ItemId>& row : *block.rows) {
      window.AddTransaction(row);
    }
  }
  IstaOptions ista;
  ista.min_support = min_support;
  return MineClosedIsta(window, ista, callback, /*stats=*/nullptr,
                        options_.trace);
}

Result<std::vector<ClosedItemset>> StreamMiner::QueryCollect(
    Support min_support) {
  ClosedSetCollector collector;
  Status status = Query(min_support, collector.AsCallback());
  if (!status.ok()) return status;
  collector.SortCanonical();
  return collector.TakeSets();
}

std::uint64_t StreamMiner::NumTransactions() const {
  const MutexLock lock(mutex_);
  return ingested_;
}

std::uint64_t StreamMiner::CurrentPaneIndex() const {
  const MutexLock lock(mutex_);
  return current_pane_;
}

StreamStats StreamMiner::Stats() const {
  const MutexLock lock(mutex_);
  return counters_;
}

obs::MemoryComponent StreamMiner::ApproxMemoryUsage() const {
  const MutexLock lock(mutex_);
  obs::MemoryComponent stream("stream");
  stream.children.emplace_back("filling-rows", FillingBytesLocked());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    stream.children.emplace_back("block-" + std::to_string(i),
                                 blocks_[i].bytes);
  }
  stream.children.emplace_back("block-list",
                               blocks_.capacity() * sizeof(Block));
  return stream;
}

StreamMiner::FrozenState StreamMiner::FreezeLocked() {
  SealLocked();
  FrozenState frozen;
  frozen.blocks = blocks_;
  frozen.ingested = ingested_;
  frozen.fill = fill_;
  frozen.current_pane = current_pane_;
  frozen.counters = counters_;
  return frozen;
}

}  // namespace fim

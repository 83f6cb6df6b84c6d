#include "stream/stream_miner.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "obs/memory.h"
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
      {"stream.segments_compacted", segments_compacted},
      {"stream.snapshot_merges", snapshot_merges},
      {"stream.transactions_ingested", transactions_ingested},
      {"stream.weighted_additions", weighted_additions},
  };
}

StreamMiner::StreamMiner(const StreamMinerOptions& options)
    : StreamMiner(options, /*restored=*/false) {}

StreamMiner::StreamMiner(const StreamMinerOptions& options, bool /*restored*/)
    : options_(options) {
  FIM_CHECK(options_.max_items > 0) << "StreamMiner needs an item universe";
  FIM_CHECK((options_.pane_size == 0) == (options_.window_panes == 0))
      << "pane_size and window_panes select the mode together: both 0 "
         "(landmark) or both > 0 (sliding window), got pane_size "
      << options_.pane_size << ", window_panes " << options_.window_panes;
  live_ = std::make_unique<IstaPrefixTree>(options_.max_items);
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
  if (options_.merge_duplicate_transactions && pending_weight_ > 0 &&
      items == pending_items_) {
    // Extend the current duplicate run; it reaches the live tree as one
    // weighted Figure-2 addition when the run breaks.
    ++pending_weight_;
  } else {
    FlushPendingLocked();
    pending_items_ = std::move(items);
    pending_weight_ = 1;
  }
  ++ingested_;
  ++counters_.transactions_ingested;
  if (options_.pane_size > 0) {
    ++fill_;
    if (fill_ == options_.pane_size) {
      // The pane is complete (the transaction just ingested is its last):
      // materialize it and advance the window.
      obs::Span rotate_span(options_.trace, "rotate");
      FlushPendingLocked();
      SealLiveLocked();
      RotateLocked();
      fill_ = 0;
    }
  }
  return Status::OK();
}

void StreamMiner::FlushPendingLocked() {
  if (pending_weight_ == 0) return;
  live_->AddTransaction(pending_items_, pending_weight_);
  pending_items_.clear();
  pending_weight_ = 0;
  ++counters_.weighted_additions;
}

void StreamMiner::SealLiveLocked() {
  if (live_->StepCount() == 0) return;
  segments_.push_back(Segment{
      current_pane_, std::shared_ptr<const IstaPrefixTree>(live_.release())});
  live_ = std::make_unique<IstaPrefixTree>(options_.max_items);
  if (options_.trace != nullptr) {
    options_.trace->Instant("seal");
    // Heap step of the rotation: the bytes that just became immutable.
    // Renders as a counter track next to the sampler's mem.* lanes.
    options_.trace->Counter(
        "mem.sealed_mib",
        BytesToMib(segments_.back().tree->ApproxMemoryUsage().TotalBytes()));
  }
}

void StreamMiner::RotateLocked() {
  ++current_pane_;
  ++counters_.panes_rotated;
  if (current_pane_ >= options_.window_panes) {
    // Exactly one pane leaves the window per rotation after warm-up;
    // dropping its segments is the entire deletion story.
    const std::uint64_t oldest_live = current_pane_ - options_.window_panes + 1;
    auto it = segments_.begin();
    while (it != segments_.end() && it->pane < oldest_live) ++it;
    segments_.erase(segments_.begin(), it);
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
  std::vector<Segment> covered;
  {
    obs::Span freeze_span(options_.trace, "query-freeze");
    const MutexLock lock(mutex_);
    ++counters_.queries;
    // Pane rotation is the only writer-visible cost of a query: the
    // pending run and live tree move into an immutable segment (pointer
    // moves plus one weighted addition); ingest continues into a fresh
    // live tree while we merge below.
    FlushPendingLocked();
    SealLiveLocked();
    covered = segments_;
  }

  // Merge outside the lock. Per pane with several segments, fold them
  // into one tree (kept for installation below); then fold the per-pane
  // trees into the snapshot. Merge reproduces the repository of the
  // concatenated streams exactly, so the snapshot equals batch-mining
  // the covered transaction multiset.
  struct Install {
    std::uint64_t pane = 0;
    std::size_t begin = 0;  // range [begin, end) into `covered`
    std::size_t end = 0;
    std::shared_ptr<const IstaPrefixTree> merged;
  };
  std::vector<Segment> pane_trees;
  std::vector<Install> installs;
  std::uint64_t merges = 0;
  obs::Span merge_span(options_.trace, "query-merge");
  for (std::size_t i = 0; i < covered.size();) {
    std::size_t j = i + 1;
    while (j < covered.size() && covered[j].pane == covered[i].pane) ++j;
    if (j - i == 1) {
      pane_trees.push_back(covered[i]);
    } else {
      auto merged = std::make_shared<IstaPrefixTree>(options_.max_items);
      for (std::size_t k = i; k < j; ++k) {
        merged->Merge(*covered[k].tree);
        ++merges;
      }
      pane_trees.push_back(Segment{covered[i].pane, merged});
      installs.push_back(Install{covered[i].pane, i, j, merged});
    }
    i = j;
  }
  std::shared_ptr<const IstaPrefixTree> snapshot;
  if (pane_trees.size() == 1) {
    snapshot = pane_trees.front().tree;
  } else if (!pane_trees.empty()) {
    auto combined = std::make_shared<IstaPrefixTree>(options_.max_items);
    for (const Segment& pane_tree : pane_trees) {
      combined->Merge(*pane_tree.tree);
      ++merges;
    }
    snapshot = combined;
  }
  merge_span.End();

  {
    obs::Span compact_span(options_.trace, "query-compact");
    // Install the per-pane merged trees back (compaction): the next
    // query then folds one tree per already-seen pane instead of one per
    // historical seal. Replacement is by segment identity — if ingest
    // expired or another query already replaced a run, skip it.
    const MutexLock lock(mutex_);
    counters_.snapshot_merges += merges;
    for (const Install& install : installs) {
      auto first = std::find_if(
          segments_.begin(), segments_.end(), [&](const Segment& s) {
            return s.tree == covered[install.begin].tree;
          });
      if (first == segments_.end()) continue;
      const std::size_t at = static_cast<std::size_t>(first - segments_.begin());
      const std::size_t count = install.end - install.begin;
      if (at + count > segments_.size()) continue;
      bool intact = true;
      for (std::size_t k = 1; k < count; ++k) {
        if (segments_[at + k].tree != covered[install.begin + k].tree) {
          intact = false;
          break;
        }
      }
      if (!intact) continue;
      segments_[at] = Segment{install.pane, install.merged};
      segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(at + 1),
                      segments_.begin() + static_cast<std::ptrdiff_t>(at + count));
      counters_.segments_compacted += count - 1;
    }
  }

  obs::Span report_span(options_.trace, "query-report");
  if (snapshot != nullptr) snapshot->Report(min_support, callback);
  return Status::OK();
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

std::size_t StreamMiner::NodeCount() const {
  const MutexLock lock(mutex_);
  std::size_t nodes = live_->NodeCount();
  for (const Segment& segment : segments_) nodes += segment.tree->NodeCount();
  return nodes;
}

StreamStats StreamMiner::Stats() const {
  const MutexLock lock(mutex_);
  StreamStats stats = counters_;
  stats.live_segments =
      segments_.size() + (live_->StepCount() > 0 ? 1 : 0);
  stats.repository_nodes = live_->NodeCount();
  for (const Segment& segment : segments_) {
    stats.repository_nodes += segment.tree->NodeCount();
  }
  return stats;
}

obs::MemoryComponent StreamMiner::ApproxMemoryUsage() const {
  const MutexLock lock(mutex_);
  obs::MemoryComponent stream("stream");
  obs::MemoryComponent live = live_->ApproxMemoryUsage();
  live.name = "live-tree";
  stream.children.push_back(std::move(live));
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    obs::MemoryComponent segment = segments_[i].tree->ApproxMemoryUsage();
    segment.name = "segment-" + std::to_string(i);
    stream.children.push_back(std::move(segment));
  }
  stream.children.emplace_back(
      "segment-spine", segments_.capacity() * sizeof(Segment));
  stream.children.emplace_back(
      "pending-run", pending_items_.capacity() * sizeof(ItemId));
  return stream;
}

StreamMiner::FrozenState StreamMiner::FreezeLocked() {
  // The pending duplicate run is captured as-is (not flushed), so a
  // restored miner can keep extending it exactly like the live one.
  SealLiveLocked();
  FrozenState frozen;
  frozen.segments = segments_;
  frozen.pending_items = pending_items_;
  frozen.pending_weight = pending_weight_;
  frozen.ingested = ingested_;
  frozen.fill = fill_;
  frozen.current_pane = current_pane_;
  frozen.counters = counters_;
  return frozen;
}

}  // namespace fim

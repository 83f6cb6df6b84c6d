#include "enumeration/lcm.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "data/recode.h"
#include "kernels/intersect.h"
#include "kernels/tidset.h"
#include "obs/memory.h"

namespace fim {

namespace {

// Database reduction: the duplicate-merged weighted rows (RecodeWeighted)
// plus the vertical view of them the closure check probes. Built once,
// then read-only: parallel workers share one instance.
class ReducedDatabase {
 public:
  explicit ReducedDatabase(WeightedDatabase rows) : rows_(std::move(rows)) {
    std::vector<std::vector<Tid>> tids = rows_.BuildVertical();
    columns_.reserve(tids.size());
    for (auto& column : tids) {
      columns_.push_back(kernels::TidSet::FromSorted(std::move(column), size()));
    }
  }

  Tid size() const { return static_cast<Tid>(rows_.size()); }
  std::size_t num_items() const { return columns_.size(); }

  const WeightedDatabase& rows() const { return rows_; }
  std::span<const ItemId> row(Tid t) const { return rows_.row(t); }
  Support weight(Tid t) const { return rows_.weight(t); }
  const kernels::TidSet& column(ItemId item) const { return columns_[item]; }

  // closure(∅): the items of every merged row.
  std::vector<ItemId> RootClosure() const {
    std::vector<ItemId> root;
    for (std::size_t item = 0; item < columns_.size(); ++item) {
      if (columns_[item].Count() == size()) {
        root.push_back(static_cast<ItemId>(item));
      }
    }
    return root;
  }

  void RecordMemory(obs::MemoryBreakdown* memory) const {
    if (memory == nullptr) return;
    memory->Record(rows_.ApproxMemoryUsage());
    std::size_t vertical = columns_.capacity() * sizeof(kernels::TidSet);
    for (const auto& column : columns_) vertical += column.ApproxMemoryUsage();
    memory->RecordBytes("vertical-view", vertical);
  }

 private:
  const WeightedDatabase rows_;
  std::vector<kernels::TidSet> columns_;  // per item: merged rows holding it
};

// One frequent extension of a node, found by occurrence deliver; its
// occurrences are [begin, end) of the level's bucket buffer.
struct Candidate {
  ItemId item;
  Support support;
  std::size_t begin;
  std::size_t end;
};

// Per-depth scratch: the node's candidates, their occurrence buckets
// (one flat buffer) and the closure under evaluation, which is the child
// node's prefix while the recursion below it runs.
struct Level {
  std::vector<Candidate> candidates;
  std::vector<Tid> buckets;
  std::vector<ItemId> closure;
};

// The sequential core: depth-first prefix-preserving closure extension
// over the reduced database. Parallel mode runs one worker per thread
// over disjoint first-level subtrees (PPC extension makes the subtrees
// independent: each closed set has a unique canonical parent). All
// mutable state is private to the worker.
class LcmWorker {
 public:
  LcmWorker(const ReducedDatabase& db, Support min_support, MinerStats* stats)
      : db_(db),
        min_support_(min_support),
        stats_(stats),
        item_support_(db.num_items(), 0),
        item_slot_(db.num_items(), 0) {}

  // Expands node (p, occ): emits every PPC child and recurses into it.
  // `p` is closed with support `support`, `occ` its merged rows, and
  // `first` the lowest item an extension may add (core item + 1).
  void Extend(std::span<const ItemId> p, std::span<const Tid> occ,
              Support support, ItemId first, std::size_t depth,
              const ClosedSetCallback& sink) {
    Level& level = LevelAt(depth);
    Deliver(occ, support, first, &level);
    for (const Candidate& c : level.candidates) {
      const std::span<const Tid> occ_c = Occurrences(level, c);
      if (!Close(p, c.item, occ_c, &level.closure)) continue;
      if (stats_ != nullptr) ++stats_->sets_reported;
      sink(level.closure, c.support);
      Extend(level.closure, occ_c, c.support, c.item + 1, depth + 1, sink);
    }
  }

  // Occurrence deliver: one pass over the items >= `first` of the rows in
  // `occ` yields every frequent extension with its weighted support and
  // its occurrence bucket (a counting sort: count, then fill). An item of
  // every covering row has the node's full support and is already in the
  // closed prefix, so it is no candidate.
  void Deliver(std::span<const Tid> occ, Support support, ItemId first,
               Level* level) {
    for (Tid t : occ) {
      const Support w = db_.weight(t);
      const std::span<const ItemId> row = db_.row(t);
      for (std::size_t k = row.size(); k > 0 && row[k - 1] >= first; --k) {
        const ItemId item = row[k - 1];
        if (item_support_[item] == 0) touched_.push_back(item);
        item_support_[item] += w;
        ++item_slot_[item];
      }
    }
    std::sort(touched_.begin(), touched_.end());
    level->candidates.clear();
    std::size_t total = 0;
    for (ItemId item : touched_) {
      const Support s = item_support_[item];
      item_support_[item] = 0;
      const bool in_prefix = s == support;
      if (!in_prefix && stats_ != nullptr) ++stats_->extension_checks;
      if (in_prefix || s < min_support_) {
        item_slot_[item] = kSkip;
        continue;
      }
      const std::size_t count = item_slot_[item];
      level->candidates.push_back(Candidate{item, s, total, total + count});
      item_slot_[item] = total;
      total += count;
    }
    level->buckets.resize(total);
    if (total > 0) {
      for (Tid t : occ) {
        const std::span<const ItemId> row = db_.row(t);
        for (std::size_t k = row.size(); k > 0 && row[k - 1] >= first; --k) {
          std::size_t& slot = item_slot_[row[k - 1]];
          if (slot != kSkip) level->buckets[slot++] = t;
        }
      }
    }
    for (ItemId item : touched_) item_slot_[item] = 0;
    touched_.clear();
  }

  // Closure of p ∪ {i} over `occ` (its merged rows) into `*q`, with the
  // prefix-preservation check folded in. The closure lies inside every
  // covering row, so only the first row's items outside p are probed
  // against the vertical view; the first probe that finds an item below
  // i covering all of `occ` rejects the candidate (q would differ from p
  // below i). Returns false on rejection.
  bool Close(std::span<const ItemId> p, ItemId i, std::span<const Tid> occ,
             std::vector<ItemId>* q) const {
    if (stats_ != nullptr) ++stats_->closure_checks;
    const std::span<const Tid> rest = occ.subspan(1);  // row(occ[0]) ⊇ q
    std::size_t probed_total = 0;
    std::size_t covered_total = 0;
    bool preserved = true;
    q->clear();
    auto in_p = p.begin();
    for (ItemId j : db_.row(occ.front())) {
      if (in_p != p.end() && *in_p == j) {
        ++in_p;
        q->push_back(j);
        continue;
      }
      if (j == i) {
        q->push_back(j);
        continue;
      }
      std::size_t probed = 0;
      const bool covers = db_.column(j).ContainsAll(rest, &probed);
      probed_total += probed;
      if (!covers) continue;
      covered_total += probed;
      if (j < i) {
        preserved = false;
        break;
      }
      q->push_back(j);
    }
    kernels::CountCall(probed_total, covered_total);
    FIM_DCHECK(!preserved || IsSubsetSorted(p, *q))
        << "closure must be a superset of the extended set";
    return preserved;
  }

  // Heap bytes of the worker's scratch: the per-depth buckets plus the
  // per-item deliver tables.
  std::size_t ScratchBytes() const {
    std::size_t bytes = item_support_.capacity() * sizeof(Support) +
                        item_slot_.capacity() * sizeof(std::size_t) +
                        touched_.capacity() * sizeof(ItemId);
    for (const Level& level : levels_) {
      bytes += level.candidates.capacity() * sizeof(Candidate) +
               level.buckets.capacity() * sizeof(Tid) +
               level.closure.capacity() * sizeof(ItemId);
    }
    return bytes;
  }

  Level& LevelAt(std::size_t depth) {
    // A deque: growing it never moves the levels above, whose closures
    // and buckets the recursion is still reading.
    while (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  static std::span<const Tid> Occurrences(const Level& level,
                                          const Candidate& c) {
    return std::span<const Tid>(level.buckets)
        .subspan(c.begin, c.end - c.begin);
  }

 private:
  static constexpr std::size_t kSkip = std::numeric_limits<std::size_t>::max();

  const ReducedDatabase& db_;
  const Support min_support_;
  MinerStats* const stats_;
  // Deliver tables, indexed by item; all zero between delivers.
  std::vector<Support> item_support_;
  std::vector<std::size_t> item_slot_;  // count, then bucket write cursor
  std::vector<ItemId> touched_;
  std::deque<Level> levels_;
};

// One independent first-level subtree of the parallel run: a PPC child
// of the root, whose occurrences stay in the driver's level-0 buckets.
struct FirstLevelTask {
  std::vector<ItemId> closed_set;
  Candidate candidate;
};

// Returns the scratch bytes of every worker, live together at the peak.
std::size_t MineParallel(const ReducedDatabase& db, Support min_support,
                         const std::vector<ItemId>& root,
                         std::span<const Tid> all, Support total,
                         unsigned num_threads,
                         const ClosedSetCallback& callback,
                         MinerStats* stats) {
  // Deliver and close the first level sequentially (one pass over the
  // database), then fan the subtrees out to the workers.
  LcmWorker driver(db, min_support, stats);
  Level& level0 = driver.LevelAt(0);
  driver.Deliver(all, total, 0, &level0);
  std::vector<FirstLevelTask> tasks;
  for (const Candidate& c : level0.candidates) {
    if (!driver.Close(root, c.item, LcmWorker::Occurrences(level0, c),
                      &level0.closure)) {
      continue;
    }
    tasks.push_back(FirstLevelTask{level0.closure, c});
  }

  // Private worker state and stats; the aggregation below happens after
  // the join.
  const unsigned n = std::max(1u, num_threads);
  std::vector<std::vector<ClosedItemset>> results(tasks.size());
  std::vector<MinerStats> worker_stats(stats != nullptr ? n : 0);
  std::vector<std::size_t> worker_bytes(n, 0);
  std::atomic<std::size_t> next{0};
  auto work = [&](unsigned w) {
    obs::MemDomainScope mem_domain(obs::MemDomain::kMine);
    MinerStats* slot = stats != nullptr ? &worker_stats[w] : nullptr;
    LcmWorker worker(db, min_support, slot);
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= tasks.size()) break;
      const FirstLevelTask& task = tasks[t];
      ClosedSetCollector collector;
      const ClosedSetCallback sink = collector.AsCallback();
      if (slot != nullptr) ++slot->sets_reported;
      sink(task.closed_set, task.candidate.support);
      worker.Extend(task.closed_set,
                    LcmWorker::Occurrences(level0, task.candidate),
                    task.candidate.support, task.candidate.item + 1, 1, sink);
      results[t] = collector.TakeSets();
    }
    worker_bytes[w] = worker.ScratchBytes();
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned w = 0; w < n; ++w) threads.emplace_back(work, w);
  for (auto& thread : threads) thread.join();

  if (stats != nullptr) {
    for (const MinerStats& s : worker_stats) stats->MergeFrom(s);
  }

  // Emit in task order: identical to the sequential DFS order.
  for (const auto& chunk : results) {
    for (const auto& set : chunk) callback(set.items, set.support);
  }

  std::size_t bytes = driver.ScratchBytes() +
                      tasks.capacity() * sizeof(FirstLevelTask);
  for (const FirstLevelTask& task : tasks) {
    bytes += task.closed_set.capacity() * sizeof(ItemId);
  }
  for (std::size_t b : worker_bytes) bytes += b;
  return bytes;
}

}  // namespace

Status MineClosedLcm(const TransactionDatabase& db, const LcmOptions& options,
                     const ClosedSetCallback& callback, MinerStats* stats) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (stats != nullptr) *stats = MinerStats{};
  if (db.NumTransactions() == 0) return Status::OK();

  const Recoding recoding = ComputeRecoding(
      db, ItemOrder::kFrequencyDescending, options.min_support);
  const ReducedDatabase reduced(
      RecodeWeighted(db, recoding, TransactionOrder::kSizeAscending,
                     /*merge_duplicates=*/true));
  if (reduced.size() == 0) return Status::OK();
  if (stats != nullptr) stats->weighted_transactions = reduced.size();
  reduced.RecordMemory(options.memory);

  const Support n = reduced.rows().TotalWeight();
  if (n < options.min_support) return Status::OK();
  const ClosedSetCallback decoded = MakeDecodingCallback(recoding, callback);

  if (stats != nullptr) ++stats->closure_checks;
  const std::vector<ItemId> root = reduced.RootClosure();
  if (!root.empty()) {
    if (stats != nullptr) ++stats->sets_reported;
    decoded(root, n);
  }

  std::vector<Tid> all(reduced.size());
  for (Tid t = 0; t < reduced.size(); ++t) all[t] = t;
  std::size_t scratch_bytes = 0;
  if (options.num_threads <= 1) {
    LcmWorker worker(reduced, options.min_support, stats);
    worker.Extend(root, all, n, 0, 0, decoded);
    scratch_bytes = worker.ScratchBytes();
  } else {
    scratch_bytes =
        MineParallel(reduced, options.min_support, root, all, n,
                     options.num_threads, decoded, stats);
  }
  if (options.memory != nullptr) {
    options.memory->RecordBytes("occurrence-buckets",
                                scratch_bytes + all.capacity() * sizeof(Tid));
  }
  return Status::OK();
}

}  // namespace fim

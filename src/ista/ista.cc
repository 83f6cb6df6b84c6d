#include "ista/ista.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ista/prefix_tree.h"
#include "obs/memory.h"
#include "obs/trace.h"

namespace fim {

namespace {

/// Records the preprocessing structures that stay alive for the whole
/// mining call: the weighted database and the remaining-occurrence
/// table.
void RecordPreprocessingMemory(obs::MemoryBreakdown* memory,
                               const WeightedDatabase& coded) {
  if (memory == nullptr) return;
  memory->Record(coded.ApproxMemoryUsage());
  memory->RecordBytes("remaining-tables", coded.num_items() * sizeof(Support));
}

/// Mines the weighted database into one repository (paper §3.2-§3.3),
/// row by row in its stored order. `remaining` starts as the weighted
/// support of every item and loses each row's items as it is processed,
/// which is the bound the item-elimination pruning tests against. The
/// repository tracks its own peak/prune/isect statistics.
IstaPrefixTree MineShard(const WeightedDatabase& coded,
                         std::vector<Support> remaining,
                         const IstaOptions& options, obs::Trace* trace) {
  IstaPrefixTree tree(coded.num_items());
  std::size_t prune_threshold = options.prune_node_threshold;
  for (std::size_t t = 0; t < coded.size(); ++t) {
    const std::span<const ItemId> row = coded.row(t);
    const Support weight = coded.weight(t);
    tree.AddTransaction(row, weight);
    for (ItemId i : row) remaining[i] -= weight;
    if (options.item_elimination && tree.NodeCount() > prune_threshold) {
      obs::Span prune_span(trace, "prune");
      tree.Prune(options.min_support, remaining);
      prune_span.End();
      prune_threshold = std::max(prune_threshold, 2 * tree.NodeCount());
      if (trace != nullptr) {
        trace->Counter("nodes", static_cast<double>(tree.NodeCount()));
      }
    }
  }
  return tree;
}

/// Copies the repository's own counters into the snapshot and reports the
/// final tree, counting the emitted sets. The counting wrapper only
/// observes the callback sequence, so the output is identical with and
/// without stats.
void ReportWithStats(const IstaPrefixTree& tree, const Recoding& recoding,
                     Support min_support, const ClosedSetCallback& callback,
                     IstaStats* stats) {
  if (stats == nullptr) {
    tree.Report(min_support, MakeDecodingCallback(recoding, callback));
    return;
  }
  stats->peak_nodes = tree.PeakNodeCount();
  stats->final_nodes = tree.NodeCount();
  stats->prune_calls = tree.PruneCount();
  stats->isect_steps = tree.IsectSteps();
  const ClosedSetCallback decoding = MakeDecodingCallback(recoding, callback);
  tree.Report(min_support,
              [stats, &decoding](std::span<const ItemId> items,
                                 Support support) {
                ++stats->sets_reported;
                decoding(items, support);
              });
}

}  // namespace

Status MineClosedIsta(const TransactionDatabase& db, const IstaOptions& options,
                      const ClosedSetCallback& callback, IstaStats* stats,
                      obs::Trace* trace) {
  if (options.min_support == 0) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (stats != nullptr) *stats = IstaStats{};
  if (db.NumTransactions() == 0) return Status::OK();

  // Preprocessing: assign item codes, dropping items that cannot occur
  // in any frequent set (`recode`), then map the rows, merge identical
  // ones into weighted rows and order them (`dedup`; paper §3.4).
  const Support min_item_support =
      options.item_elimination ? options.min_support : 1;
  obs::Span recode_span(trace, "recode");
  const Recoding recoding =
      ComputeRecoding(db, options.item_order, min_item_support);
  recode_span.End();
  obs::Span dedup_span(trace, "dedup");
  const WeightedDatabase coded = [&] {
    obs::MemDomainScope mem_domain(obs::MemDomain::kRecode);
    return RecodeWeighted(db, recoding, options.transaction_order,
                          options.merge_duplicate_transactions);
  }();
  dedup_span.End();
  if (coded.size() == 0) return Status::OK();
  if (stats != nullptr) stats->weighted_transactions = coded.size();
  RecordPreprocessingMemory(options.memory, coded);

  std::vector<Support> remaining = coded.ItemSupports();
  obs::Span mine_span(trace, "shard-mine");
  const IstaPrefixTree tree = [&] {
    obs::MemDomainScope mem_domain(obs::MemDomain::kIstaTree);
    return MineShard(coded, std::move(remaining), options, trace);
  }();
  mine_span.End();
  FIM_DCHECK_OK(tree.ValidateInvariants());
  if (options.memory != nullptr) {
    obs::MemoryComponent trees("prefix-trees");
    trees.children.push_back(tree.ApproxMemoryUsage());
    trees.children.back().name = "shard-0";
    options.memory->Record(std::move(trees));
  }
  obs::Span report_span(trace, "report");
  ReportWithStats(tree, recoding, options.min_support, callback, stats);
  return Status::OK();
}

}  // namespace fim

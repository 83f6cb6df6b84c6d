#include "obs/miner_stats.h"

#include <algorithm>

namespace fim {

void MinerStats::MergeFrom(const MinerStats& other) {
  isect_steps += other.isect_steps;
  peak_nodes = std::max(peak_nodes, other.peak_nodes);
  final_nodes = std::max(final_nodes, other.final_nodes);
  prune_calls += other.prune_calls;
  weighted_transactions += other.weighted_transactions;
  nodes_visited += other.nodes_visited;
  repo_sets += other.repo_sets;
  repo_hits += other.repo_hits;
  column_switches += other.column_switches;
  extension_checks += other.extension_checks;
  closure_checks += other.closure_checks;
  subsume_checks += other.subsume_checks;
  conditional_trees += other.conditional_trees;
  candidate_sets += other.candidate_sets;
  sets_reported += other.sets_reported;
  kernel_calls += other.kernel_calls;
  kernel_elements_in += other.kernel_elements_in;
  kernel_elements_out += other.kernel_elements_out;
}

std::vector<std::pair<const char*, std::uint64_t>> MinerStats::Counters()
    const {
  return {
      {"isect_steps", isect_steps},
      {"peak_nodes", peak_nodes},
      {"final_nodes", final_nodes},
      {"prune_calls", prune_calls},
      {"weighted_transactions", weighted_transactions},
      {"nodes_visited", nodes_visited},
      {"repo_sets", repo_sets},
      {"repo_hits", repo_hits},
      {"column_switches", column_switches},
      {"extension_checks", extension_checks},
      {"closure_checks", closure_checks},
      {"subsume_checks", subsume_checks},
      {"conditional_trees", conditional_trees},
      {"candidate_sets", candidate_sets},
      {"sets_reported", sets_reported},
      {"kernel_calls", kernel_calls},
      {"kernel_elements_in", kernel_elements_in},
      {"kernel_elements_out", kernel_elements_out},
  };
}

}  // namespace fim

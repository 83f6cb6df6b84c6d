// Online mining scenario: transactions arrive as a stream (e.g. a live
// click-stream or a growing experiment compendium) and the application
// periodically asks for the currently strongest closed item sets. A
// landmark-mode StreamMiner keeps every row seen so far and answers
// each query with batch IsTa at that query's minimum support.
//
//   $ ./examples/streaming_monitor

#include <algorithm>
#include <cstdio>

#include "api/constrained.h"
#include "api/topk.h"
#include "data/generators.h"
#include "stream/stream_miner.h"

int main() {
  using namespace fim;

  // The "stream": a market-basket workload with planted patterns.
  MarketBasketConfig config;
  config.num_items = 60;
  config.num_transactions = 3000;
  config.avg_transaction_size = 7.0;
  config.num_patterns = 8;
  config.pattern_probability = 0.55;
  config.seed = 97;
  const TransactionDatabase stream = GenerateMarketBasket(config);

  StreamMinerOptions stream_options;
  stream_options.max_items = stream.NumItems();  // no panes: landmark mode
  StreamMiner miner(stream_options);
  const std::size_t report_every = 1000;
  for (std::size_t k = 0; k < stream.NumTransactions(); ++k) {
    Status status = miner.AddTransaction(stream.transaction(k));
    if (!status.ok()) {
      std::fprintf(stderr, "add failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if ((k + 1) % report_every != 0) continue;

    // Ask for the strongest multi-item associations seen so far.
    const Support smin = static_cast<Support>((k + 1) / 20);  // 5%
    auto snapshot = miner.QueryCollect(smin);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    std::vector<ClosedItemset> multi;
    for (auto& set : snapshot.value()) {
      if (set.items.size() >= 2) multi.push_back(std::move(set));
    }
    std::sort(multi.begin(), multi.end(),
              [](const ClosedItemset& a, const ClosedItemset& b) {
                return a.support > b.support;
              });
    std::printf("after %5zu transactions (smin %u, %zu closed sets):\n",
                k + 1, smin, snapshot.value().size());
    for (std::size_t i = 0; i < std::min<std::size_t>(3, multi.size());
         ++i) {
      std::printf("   %s  support %u\n",
                  ItemsToString(multi[i].items).c_str(), multi[i].support);
    }
  }

  // For comparison, the batch API answers the same question post hoc —
  // here via top-k so no threshold has to be guessed.
  auto top = MineTopKClosed(stream, 5);
  if (top.ok()) {
    std::printf("\nfinal top-5 closed sets (batch top-k API):\n");
    for (const auto& set : top.value()) {
      std::printf("   %s  support %u\n", ItemsToString(set.items).c_str(),
                  set.support);
    }
  }

  // ... and constrained mining drills into one item of interest.
  const ItemId focus = top.ok() && !top.value().empty()
                           ? top.value().front().items.front()
                           : 0;
  MinerOptions options;
  options.min_support = 30;
  ItemConstraints constraints;
  constraints.must_contain = {focus};
  auto focused = MineClosedConstrainedCollect(stream, options, constraints);
  if (focused.ok()) {
    std::printf("\n%zu closed sets contain item %u (support >= %u)\n",
                focused.value().size(), focus, options.min_support);
  }
  return 0;
}

// Streaming bench: ingest throughput and snapshot-query latency of the
// StreamMiner (src/stream/) over generated market-basket data.
//
// Two series per configuration:
//   <name>-ingest  seconds = wall time to ingest the whole stream
//                  (queries excluded), i.e. stream length / tx-per-sec;
//                  cpu_seconds = the driving thread's CPU over the same
//                  ingest calls (queries excluded too)
//   <name>-query   seconds = mean latency of one exact snapshot query,
//                  measured over queries evenly spaced during ingest
//
// Configurations: landmark mode plus sliding windows of a fixed ~2048
// transactions chopped into 4/8/16/32 panes — the pane count is the
// expiry granularity. Every query re-mines the covered rows, so its
// latency follows the rows covered, not the pane count. Every query's
// set count is recorded so the exactness cross-check against fim-mine
// stays cheap to run by hand.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"
#include "data/stats.h"
#include "obs/memory.h"
#include "stream/stream_miner.h"

namespace {

struct Config {
  std::string name;
  std::size_t pane_size = 0;    // 0 = landmark
  std::size_t window_panes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 0.25;

  // Pattern-dominated baskets: rows are mostly subsets of shared
  // patterns, so many rows repeat and duplicate merging bites.
  MarketBasketConfig basket;
  basket.num_items = 200;
  basket.num_transactions =
      static_cast<std::size_t>(80000 * scale) < 4096
          ? 4096
          : static_cast<std::size_t>(80000 * scale);
  basket.avg_transaction_size = 2.0;
  basket.num_patterns = 25;
  basket.pattern_probability = 0.9;
  basket.pattern_keep_probability = 0.85;
  basket.avg_pattern_size = 5;
  basket.seed = 21;
  const TransactionDatabase db = GenerateMarketBasket(basket);
  std::printf("stream bench: %s\n", StatsToString(ComputeStats(db)).c_str());

  constexpr Support kMinSupport = 8;
  constexpr std::size_t kQueries = 32;  // evenly spaced during ingest
  constexpr std::size_t kWindowTx = 2048;

  std::vector<Config> configs;
  configs.push_back({"stream-landmark", 0, 0});
  for (std::size_t panes : {4u, 8u, 16u, 32u}) {
    configs.push_back(
        {"stream-w" + std::to_string(panes), kWindowTx / panes, panes});
  }

  std::vector<bench::JsonPoint> points;
  for (const Config& config : configs) {
    StreamMinerOptions options;
    options.max_items = db.NumItems();
    options.pane_size = config.pane_size;
    options.window_panes = config.window_panes;
    StreamMiner miner(options);

    const std::size_t query_stride = db.NumTransactions() / kQueries;
    double ingest_seconds = 0.0;
    double ingest_cpu_seconds = 0.0;  // ingest only, like ingest_seconds
    double query_seconds = 0.0;
    std::size_t queries_run = 0;
    std::size_t num_sets = 0;
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      // The thread-CPU clock is a syscall; its reads stay outside the
      // wall interval so they do not inflate ingest_seconds.
      const CpuTimer ingest_cpu;
      WallTimer ingest;
      if (!miner.AddTransaction(db.transaction(k)).ok()) {
        std::fprintf(stderr, "ingest failed at tx %zu\n", k);
        return 1;
      }
      ingest_seconds += ingest.Seconds();
      ingest_cpu_seconds += ingest_cpu.Seconds();
      if ((k + 1) % query_stride == 0) {
        WallTimer query;
        std::size_t count = 0;
        Status status = miner.Query(
            kMinSupport,
            [&count](std::span<const ItemId>, Support) { ++count; });
        query_seconds += query.Seconds();
        if (!status.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
        num_sets = count;
        ++queries_run;
      }
    }
    const double mean_query = query_seconds / static_cast<double>(queries_run);
    std::printf(
        "  %-16s %9.0f tx/s ingest, %8.3f ms/query (%zu queries, %zu sets)\n",
        config.name.c_str(),
        static_cast<double>(db.NumTransactions()) / ingest_seconds,
        1000.0 * mean_query, queries_run, num_sets);

    MinerStats mapped;
    mapped.sets_reported = num_sets;

    // End-of-ingest footprint: the covered rows (filling and sealed
    // blocks), next to the process peak RSS.
    const std::size_t accounted = miner.ApproxMemoryUsage().TotalBytes();

    bench::JsonPoint ingest_point;
    ingest_point.algorithm = config.name + "-ingest";
    ingest_point.min_support = kMinSupport;
    ingest_point.seconds = ingest_seconds;
    ingest_point.num_sets = num_sets;
    ingest_point.ran = true;
    ingest_point.cpu_seconds = ingest_cpu_seconds;
    ingest_point.stats = mapped;
    ingest_point.has_stats = true;
    ingest_point.has_mem = true;
    ingest_point.mem_accounted_bytes = accounted;
    ingest_point.mem_peak_rss_bytes = PeakRss();
    points.push_back(ingest_point);

    bench::JsonPoint query_point;
    query_point.algorithm = config.name + "-query";
    query_point.min_support = kMinSupport;
    query_point.seconds = mean_query;
    query_point.num_sets = num_sets;
    query_point.ran = true;
    points.push_back(query_point);
  }

  if (!args.json_path.empty()) {
    bench::WriteJson(args.json_path, "stream", scale, points);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

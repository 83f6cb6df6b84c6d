// Tests of the observability subsystem: span nesting and aggregation,
// JSON writer/parser round-trips, the MinerStats snapshot, and — the
// core contract — that requesting stats or a trace never changes any
// miner's output at any thread count.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "api/miner.h"
#include "common/sync.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/miner_stats.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace fim {
namespace {

// --- trace ------------------------------------------------------------

TEST(TraceTest, SpansNestAndAggregate) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "outer");
    { obs::Span inner(&trace, "inner"); }
    { obs::Span inner(&trace, "inner"); }  // same name: accumulates
    { obs::Span other(&trace, "other"); }
  }
  EXPECT_EQ(trace.OpenDepth(), 0u);
  ASSERT_EQ(trace.root().children.size(), 1u);
  const obs::SpanNode& outer = *trace.root().children.front();
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.size(), 2u);  // inner + other, first-entry order
  const obs::SpanNode* inner = outer.FindChild("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_GE(inner->wall_seconds, 0.0);
  ASSERT_NE(outer.FindChild("other"), nullptr);
  EXPECT_EQ(outer.FindChild("missing"), nullptr);
  EXPECT_GE(outer.wall_seconds, inner->wall_seconds);
}

TEST(TraceTest, NullTraceSpansAreNoOps) {
  obs::Span span(nullptr, "anything");
  span.End();  // must not crash
}

TEST(TraceTest, ExplicitEndClosesEarlyAndOnce) {
  obs::Trace trace;
  {
    obs::Span span(&trace, "phase");
    span.End();
    EXPECT_EQ(trace.OpenDepth(), 0u);
  }  // destructor must not End() again
  ASSERT_EQ(trace.root().children.size(), 1u);
  EXPECT_EQ(trace.root().children.front()->count, 1u);
}

// --- json -------------------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("name");
  writer.String("a \"quoted\"\nvalue");
  writer.Key("count");
  writer.Number(std::uint64_t{18446744073709551615ull});
  writer.Key("ratio");
  writer.Number(0.25);
  writer.Key("flag");
  writer.Bool(true);
  writer.Key("nothing");
  writer.Null();
  writer.Key("list");
  writer.BeginArray();
  writer.Number(std::uint64_t{1});
  writer.Number(std::uint64_t{2});
  writer.EndArray();
  writer.EndObject();
  const std::string json = std::move(writer).Take();

  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& value = parsed.value();
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.Find("name")->AsString(), "a \"quoted\"\nvalue");
  EXPECT_DOUBLE_EQ(value.Find("ratio")->AsNumber(), 0.25);
  EXPECT_TRUE(value.Find("flag")->AsBool());
  EXPECT_TRUE(value.Find("nothing")->is_null());
  ASSERT_TRUE(value.Find("list")->is_array());
  EXPECT_EQ(value.Find("list")->AsArray().size(), 2u);
  EXPECT_EQ(value.Find("absent"), nullptr);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(obs::ParseJson("[1, 2] trailing").ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ParseJson("nul").ok());
}

TEST(JsonTest, ParserHandlesEscapesAndNesting) {
  auto parsed = obs::ParseJson(
      R"({"s": "tab\t slash\/ unicodeA", "nested": {"a": [true, null]}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("s")->AsString(), "tab\t slash/ unicodeA");
  const obs::JsonValue* nested = parsed.value().Find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_TRUE(nested->Find("a")->is_array());
  EXPECT_TRUE(nested->Find("a")->AsArray()[0].AsBool());
}

// --- MinerStats -------------------------------------------------------

TEST(MinerStatsTest, MergeFromSumsAndMaxes) {
  MinerStats a;
  a.isect_steps = 10;
  a.peak_nodes = 100;
  a.final_nodes = 50;
  a.sets_reported = 3;
  MinerStats b;
  b.isect_steps = 5;
  b.peak_nodes = 200;
  b.final_nodes = 20;
  b.sets_reported = 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.isect_steps, 15u);
  EXPECT_EQ(a.peak_nodes, 200u);   // max, not sum
  EXPECT_EQ(a.final_nodes, 50u);   // max, not sum
  EXPECT_EQ(a.sets_reported, 7u);
}

TEST(MinerStatsTest, CountersCatalogIsCompleteAndStable) {
  MinerStats stats;
  stats.isect_steps = 1;
  stats.sets_reported = 2;
  stats.kernel_elements_out = 3;
  const auto counters = stats.Counters();
  // Full catalog, zeros included, stable order.
  ASSERT_EQ(counters.size(), 18u);
  EXPECT_STREQ(counters.front().first, "isect_steps");
  EXPECT_EQ(counters.front().second, 1u);
  EXPECT_STREQ(counters[14].first, "sets_reported");
  EXPECT_EQ(counters[14].second, 2u);
  EXPECT_STREQ(counters.back().first, "kernel_elements_out");
  EXPECT_EQ(counters.back().second, 3u);
}

// --- export -----------------------------------------------------------

TEST(ExportTest, JsonReportParsesAndCarriesSchema) {
  obs::Trace trace;
  {
    obs::Span mine(&trace, "mine");
    obs::Span recode(&trace, "recode");
  }
  obs::StatsReport report;
  report.tool = "fim-mine";
  report.algorithm = "ista";
  report.min_support = 2;
  report.num_threads = 4;
  report.num_sets = 42;
  report.wall_seconds = 1.5;
  report.cpu_seconds = 1.25;
  report.peak_rss_bytes = 1 << 20;
  report.miner.isect_steps = 1234;
  report.trace = &trace;

  auto parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& value = parsed.value();
  EXPECT_EQ(value.Find("schema")->AsString(), "fim-stats-v2");
  EXPECT_EQ(value.Find("tool")->AsString(), "fim-mine");
  EXPECT_EQ(value.Find("algorithm")->AsString(), "ista");
  EXPECT_DOUBLE_EQ(value.Find("min_support")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(value.Find("threads")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(value.Find("num_sets")->AsNumber(), 42.0);
  const obs::JsonValue* counters = value.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("isect_steps")->AsNumber(), 1234.0);
  // The whole catalog is present, zeros included.
  EXPECT_EQ(counters->AsObject().size(), MinerStats{}.Counters().size());
  const obs::JsonValue* spans = value.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->AsArray().size(), 1u);
  EXPECT_EQ(spans->AsArray()[0].Find("name")->AsString(), "mine");
  EXPECT_EQ(
      spans->AsArray()[0].Find("children")->AsArray()[0].Find("name")
          ->AsString(),
      "recode");
}

TEST(ExportTest, JsonReportEscapesStringLabels) {
  // Tool/algorithm labels are caller-supplied free-form strings; the
  // rendered report must stay parseable and round-trip them exactly.
  obs::StatsReport report;
  report.tool = "fim \"quoted\" \\ backslash";
  report.algorithm = "tab\there\nnewline\x01 control";
  auto parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("tool")->AsString(), report.tool);
  EXPECT_EQ(parsed.value().Find("algorithm")->AsString(), report.algorithm);

  // Same for span names coming out of a trace.
  obs::Trace trace;
  { obs::Span span(&trace, "span \"with\" \\ specials\n"); }
  report.tool = "fim-mine";
  report.algorithm = "ista";
  report.trace = &trace;
  parsed = obs::ParseJson(obs::RenderStatsJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(
      parsed.value().Find("spans")->AsArray()[0].Find("name")->AsString(),
      "span \"with\" \\ specials\n");
}

TEST(ExportTest, TextReportMentionsNonZeroCountersOnly) {
  obs::StatsReport report;
  report.tool = "fim-mine";
  report.algorithm = "lcm";
  report.miner.closure_checks = 9;
  const std::string text = obs::RenderStatsText(report);
  EXPECT_NE(text.find("closure_checks"), std::string::npos);
  EXPECT_EQ(text.find("conditional_trees"), std::string::npos);
}

// --- output neutrality ------------------------------------------------

// The core contract of the whole subsystem: mining with stats and trace
// enabled produces bit-identical output to mining without, for every
// algorithm, at 1 and 4 threads.
TEST(OutputNeutralityTest, StatsOnEqualsStatsOffForEveryMiner) {
  const TransactionDatabase db = GenerateRandomDense(60, 24, 0.3, 123);
  for (Algorithm algorithm : AllAlgorithms()) {
    for (unsigned threads : {1u, 4u}) {
      MinerOptions options;
      options.algorithm = algorithm;
      options.min_support = 3;
      options.num_threads = threads;

      auto plain = MineClosedCollect(db, options);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();

      MinerStats stats;
      obs::Trace trace;
      auto instrumented = MineClosedCollect(db, options, &stats, &trace);
      ASSERT_TRUE(instrumented.ok()) << instrumented.status().ToString();

      ASSERT_EQ(plain.value().size(), instrumented.value().size())
          << AlgorithmName(algorithm) << " t=" << threads;
      for (std::size_t i = 0; i < plain.value().size(); ++i) {
        EXPECT_EQ(plain.value()[i].items, instrumented.value()[i].items)
            << AlgorithmName(algorithm) << " t=" << threads << " set " << i;
        EXPECT_EQ(plain.value()[i].support, instrumented.value()[i].support)
            << AlgorithmName(algorithm) << " t=" << threads << " set " << i;
      }
      // Every miner reports how many sets it delivered.
      EXPECT_EQ(stats.sets_reported, plain.value().size())
          << AlgorithmName(algorithm) << " t=" << threads;
      EXPECT_EQ(trace.OpenDepth(), 0u);
      ASSERT_FALSE(trace.root().children.empty());
      EXPECT_EQ(trace.root().children.front()->name, "mine");
    }
  }
}

// IsTa fills the intersection-family counters at any thread count; it
// mines one repository and never merges.
TEST(OutputNeutralityTest, ParallelIstaFillsIntersectionCounters) {
  const TransactionDatabase db = GenerateRandomDense(200, 40, 0.25, 7);
  MinerOptions options;
  options.algorithm = Algorithm::kIsta;
  options.min_support = 4;
  options.num_threads = 4;
  MinerStats stats;
  auto result = MineClosedCollect(db, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.isect_steps, 0u);
  EXPECT_GT(stats.peak_nodes, 0u);
  EXPECT_GT(stats.final_nodes, 0u);
  EXPECT_GE(stats.peak_nodes, stats.final_nodes);
  EXPECT_EQ(stats.sets_reported, result.value().size());
}

// --- annotated synchronization ---------------------------------------

// Same contract style as MemoryBreakdown's internals: the helper demands
// a high-rank leaf mutex via FIM_REQUIRES, so the FIM_THREAD_SAFETY CI
// job rejects any call site that forgot the lock.
void AppendHolding(Mutex& mutex, std::vector<int>& log, int value)
    FIM_REQUIRES(mutex) {
  log.push_back(value);
}

TEST(SyncTest, RequiresAnnotatedHelperUnderRegistryRankMutex) {
  Mutex mutex(LockRank::kMemoryBreakdown, "obs-helper");
  std::vector<int> log;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        const MutexLock lock(mutex);
        AppendHolding(mutex, log, t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(log.size(), 4000u);
}

TEST(SyncTest, SamplerStressStartStop) {
  // TSan stress for the CondVar-based sampler shutdown: rapid
  // construct/Stop cycles race the 1ms sampling loop against Stop()'s
  // notify, covering both the wait-timeout and the notified exits.
  for (int round = 0; round < 20; ++round) {
    std::ostringstream out;
    obs::MetricsSamplerOptions options;
    options.period = std::chrono::milliseconds(1);
    options.counters = [] {
      return std::vector<std::pair<const char*, std::uint64_t>>{
          {"stress.counter", 7}};
    };
    obs::MetricsSampler sampler(options, &out);
    if (round % 2 == 0) std::this_thread::sleep_for(options.period);
    sampler.Stop();
    sampler.Stop();  // idempotent
    EXPECT_GE(sampler.SamplesWritten(), 1u);  // at least the final sample
  }
}

}  // namespace
}  // namespace fim

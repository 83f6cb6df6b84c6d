#ifndef FIM_TOOLS_TOOL_FLAGS_H_
#define FIM_TOOLS_TOOL_FLAGS_H_

// Shared command-line plumbing of the fim-* tools: the observability
// flags behave identically everywhere they exist —
//
//   --stats[=text|json]   emit an execution-statistics report
//   --stats-out=PATH      write the stats report to PATH instead of
//                         stderr (implies --stats)
//   --trace-out=PATH      write a Chrome trace-event JSON timeline
//                         (fim-trace-v1; load in chrome://tracing or
//                         https://ui.perfetto.dev)
//   --perf-counters       measure hardware counters (cycles, IPC,
//                         cache/branch misses) and add the `perf`
//                         section to the stats report (implies --stats;
//                         degrades to an explicit unavailable reason +
//                         rusage fallback where the kernel denies the
//                         PMU — never fails the run)
//   --profile[=PATH]      sampling self-profiler: SIGPROF stacks folded
//                         to fim-prof-v1 collapsed format (flamegraph.pl
//                         compatible) on stderr or into PATH
//   --mem-stats           collect the per-structure memory breakdown and
//                         add the `memory` section to the stats report
//                         (implies --stats; the allocation-domain table
//                         appears only in FIM_MEM_PROFILE builds)
//
// Tools parse and run them through one ObsSession so the behaviour
// cannot drift apart.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "kernels/intersect.h"
#include "obs/export.h"
#include "obs/memory.h"
#include "obs/perf.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fim::tools {

/// Parses a non-negative integer flag value with full error checking —
/// std::atoll reports neither overflow nor trailing garbage
/// (cert-err34-c), so "-s 10x" or "-s 99999999999999999999" would
/// silently mine with a wrong threshold. Prints a usage error naming
/// `flag` and exits with status 2 on any malformed value.
inline long long ParseCount(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || value < 0) {
    std::fprintf(stderr,
                 "error: %s expects a non-negative integer, got \"%s\"\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

enum class StatsFormat { kNone, kText, kJson };

/// The observability session of one tool run, shared by fim-mine /
/// fim-stream / fim-verify: it parses the flags above, opens the sinks
/// they ask for, and writes every output at the end.
///
///   ObsSession obs;
///   ... else if (obs.Parse(arg)) {} ...        // in the argument loop
///   obs.Start();                                // before the work
///   ... run with obs.trace() / obs.memory() ...
///   return obs.Finish(report);                  // after the work
///
/// Every feature degrades gracefully (an unavailable reason in the
/// report, a warning on stderr) and never fails the run by itself; only
/// an unwritable output path is an error.
class ObsSession {
 public:
  /// Consumes `arg` when it is one of the observability flags.
  bool Parse(const char* arg) {
    if (std::strcmp(arg, "--stats") == 0 ||
        std::strcmp(arg, "--stats=text") == 0) {
      stats_format_ = StatsFormat::kText;
    } else if (std::strcmp(arg, "--stats=json") == 0) {
      stats_format_ = StatsFormat::kJson;
    } else if (std::strncmp(arg, "--stats-out=", 12) == 0) {
      stats_out_ = arg + 12;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out_ = arg + 12;
    } else if (std::strcmp(arg, "--perf-counters") == 0) {
      perf_counters_ = true;
    } else if (std::strcmp(arg, "--mem-stats") == 0) {
      mem_stats_ = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile_ = true;
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile_ = true;
      profile_out_ = arg + 10;
    } else {
      return false;
    }
    return true;
  }

  /// Call once after the argument loop, on the driving thread, before
  /// the measured work. --stats-out, --perf-counters and --mem-stats
  /// imply --stats (text) — their sections need a report to live in.
  /// Then opens the sinks: the trace (under --stats or --trace-out),
  /// the timeline whose "main" lane the trace feeds (--trace-out), the
  /// PMU counters every span reads (--perf-counters), and the profiler
  /// with its own "profiler" lane (--profile).
  void Start() {
    process_cpu_start_ = ProcessCpuSeconds();
    if (stats_format_ == StatsFormat::kNone &&
        (!stats_out_.empty() || perf_counters_ || mem_stats_)) {
      stats_format_ = StatsFormat::kText;
    }
    if (WantStats() || !trace_out_.empty()) {
      trace_ = std::make_unique<obs::Trace>();
    }
    if (!trace_out_.empty()) {
      timeline_ = std::make_unique<obs::Timeline>();
      trace_->AttachTimeline(timeline_->driver());
    }
    if (perf_counters_) {
      counters_ = std::make_unique<obs::PerfCounterSet>();
      counters_->Start();
      trace_->AttachPerfCounters(counters_.get());
    }
    if (profile_) {
      obs::ProfilerOptions options;
      if (timeline_ != nullptr) options.lane = timeline_->AddLane("profiler");
      profiler_ = obs::SamplingProfiler::Start(options, &profiler_error_);
      if (profiler_ == nullptr) {
        std::fprintf(stderr, "warning: profiling disabled: %s\n",
                     profiler_error_.c_str());
      }
    }
  }

  bool WantStats() const { return stats_format_ != StatsFormat::kNone; }

  /// The span recorder (nullptr without --stats and --trace-out).
  obs::Trace* trace() { return trace_.get(); }

  /// The event timeline (nullptr without --trace-out); threads other
  /// than the driving one register their own lanes on it.
  obs::Timeline* timeline() { return timeline_.get(); }

  /// The collector for MinerOptions::memory and friends (nullptr
  /// without --mem-stats — the run then skips all recording work).
  obs::MemoryBreakdown* memory() { return mem_stats_ ? &memory_ : nullptr; }

  /// Stops the counters and the profiler, then writes the outputs in
  /// order: the Chrome trace (labelled with `report.tool` and
  /// `report.algorithm`), the stats report (completed here with the
  /// process CPU since Start(), the peak RSS, the span tree and the perf
  /// and memory sections) and the profile. Returns 0, or 1 at the first
  /// output that cannot be written.
  int Finish(obs::StatsReport report) {
    if (profiler_ != nullptr) profiler_->Stop();
    obs::PerfReport perf;
    if (counters_ != nullptr) {
      perf.availability = counters_->availability();
      if (counters_->available()) {
        counters_->Stop();
        perf.total = counters_->Read();
        perf.total_valid = true;
      }
      perf.kernel_tier = kernels::Active().name;
      perf.rusage = obs::ReadResourceUsage();
      perf.peak_rss = PeakRssBytes();
      report.perf = &perf;
    }
    obs::MemoryReport memory;
    if (mem_stats_) {
      memory = obs::BuildMemoryReport(memory_);
      report.memory = &memory;
    }
    if (timeline_ != nullptr) {
      const Status status = obs::WriteChromeTraceFile(
          *timeline_, obs::TraceMeta{report.tool, report.algorithm},
          trace_out_);
      if (!status.ok()) {
        std::fprintf(stderr, "error writing trace %s: %s\n",
                     trace_out_.c_str(), status.ToString().c_str());
        return 1;
      }
    }
    if (WantStats()) {
      report.process_cpu_seconds = ProcessCpuSeconds() - process_cpu_start_;
      report.peak_rss_bytes = PeakRss();
      report.trace = trace_.get();
      if (int rc = WriteStats(report); rc != 0) return rc;
    }
    return WriteProfile();
  }

 private:
  /// Renders `report` in the selected format to stderr or --stats-out.
  int WriteStats(const obs::StatsReport& report) const {
    const std::string rendered = stats_format_ == StatsFormat::kJson
                                     ? obs::RenderStatsJson(report)
                                     : obs::RenderStatsText(report);
    if (stats_out_.empty()) {
      std::fputs(rendered.c_str(), stderr);
      return 0;
    }
    std::ofstream out(stats_out_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   stats_out_.c_str());
      return 1;
    }
    out << rendered;
    return 0;
  }

  /// Writes the collapsed-stack profile to stderr or --profile=PATH.
  /// When the profiler could not start, a requested output file still
  /// gets a header explaining why (so CI artifact steps find a file
  /// either way).
  int WriteProfile() const {
    if (!profile_) return 0;
    if (profiler_ == nullptr) {
      if (profile_out_.empty()) return 0;  // warning already printed
      std::ofstream out(profile_out_, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     profile_out_.c_str());
        return 1;
      }
      out << "# fim-prof-v1 samples=0 dropped=0 unavailable: "
          << profiler_error_ << '\n';
      return 0;
    }
    if (profile_out_.empty()) {
      std::fputs(profiler_->RenderCollapsed().c_str(), stderr);
      return 0;
    }
    const Status status = profiler_->WriteCollapsedFile(profile_out_);
    if (!status.ok()) {
      std::fprintf(stderr, "error writing profile %s: %s\n",
                   profile_out_.c_str(), status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  StatsFormat stats_format_ = StatsFormat::kNone;
  std::string stats_out_;
  std::string trace_out_;
  bool perf_counters_ = false;
  bool profile_ = false;
  std::string profile_out_;  // empty = collapsed stacks to stderr
  bool mem_stats_ = false;

  /// User + system CPU of the whole process (every thread), from
  /// getrusage(RUSAGE_SELF); 0 where it is unavailable.
  static double ProcessCpuSeconds() {
    const obs::ResourceUsage usage = obs::ReadResourceUsage();
    return usage.user_seconds + usage.system_seconds;
  }

  double process_cpu_start_ = 0.0;
  std::unique_ptr<obs::Trace> trace_;
  std::unique_ptr<obs::Timeline> timeline_;
  std::unique_ptr<obs::PerfCounterSet> counters_;
  std::unique_ptr<obs::SamplingProfiler> profiler_;
  std::string profiler_error_;
  obs::MemoryBreakdown memory_;
};

}  // namespace fim::tools

#endif  // FIM_TOOLS_TOOL_FLAGS_H_

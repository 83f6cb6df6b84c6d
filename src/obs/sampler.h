#ifndef FIM_OBS_SAMPLER_H_
#define FIM_OBS_SAMPLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "obs/timeline.h"

namespace fim::obs {

/// Configuration of a MetricsSampler.
struct MetricsSamplerOptions {
  /// Time between samples. Must be positive.
  std::chrono::milliseconds period{1000};

  /// Optional live counter source (e.g. a closure over
  /// StreamMiner::Stats().Counters()): every sample carries its pairs,
  /// in the returned order, as the "counters" object. Without one the
  /// sample carries only the process fields. Called on the sampler
  /// thread, so it must be thread-safe.
  std::function<std::vector<std::pair<const char*, std::uint64_t>>()>
      counters;

  /// Name of a counter to derive a rate from (e.g.
  /// "stream.transactions_ingested"): each sample reports the counter
  /// delta since the previous sample divided by the elapsed time as
  /// `tx_per_second`. Needs a `counters` source; empty disables the
  /// field.
  std::string throughput_counter;

  /// Optional timeline lane: every sample additionally records an
  /// instant event ("sample") and a counter event ("rss_mib") on it, so
  /// long-running runs show their sampling cadence in the trace. The
  /// lane must be dedicated to the sampler thread (single-writer).
  TimelineLane* lane = nullptr;

  /// Optional live accounted-bytes source (e.g. a closure over
  /// StreamMiner::ApproxMemoryUsage): each sample reports its value as
  /// `mem.accounted_bytes` in the JSONL line and, with a lane, as a
  /// "mem.accounted_mib" counter track next to "rss_mib". Called on the
  /// sampler thread, so it must be thread-safe; keep it cheap (it runs
  /// once per period).
  std::function<std::size_t()> accounted_bytes;
};

/// Background metrics sampler for long-running sessions: a thread that
/// periodically snapshots the attached counters, the derived ingest
/// throughput and the process peak RSS into a JSONL time-series, one
/// object per line (`fim-statsline-v1`):
///
///   {"schema":"fim-statsline-v1","seq":0,"elapsed_seconds":1.0,
///    "peak_rss_bytes":N,"tx_per_second":F,
///    "mem":{"accounted_bytes":N,"live_bytes":N},   // optional, see below
///    "counters":{...}}
///
/// The "mem" object appears when an accounted_bytes source is attached
/// and/or the binary carries the FIM_MEM_PROFILE allocation tracker
/// (live_bytes then is the tracker's exact live-byte count); fields that
/// have no source are omitted, never faked as 0.
///
/// Sampling starts on construction. Stop() (or the destructor) wakes the
/// thread, joins it, and emits one final sample — so even a run shorter
/// than the period produces at least one line. The output stream is
/// written only by the sampler thread and, after the join, by Stop();
/// it must stay valid until Stop() returns and must not be written by
/// anyone else in between.
///
/// Abnormal-exit durability: every sample is written as one complete
/// line and flushed immediately, and each live sampler registers itself
/// in a process-wide slot table. The first sampler installs an atexit
/// hook that Stop()s whatever is still live when std::exit is called
/// (local destructors do not run then), and best-effort SIGINT/SIGTERM/
/// SIGHUP handlers — only where the disposition was still SIG_DFL —
/// that flush the registered streams before re-raising. Truncated
/// `fim-statsline-v1` files therefore require a SIGKILL-class death.
class MetricsSampler {
 public:
  MetricsSampler(const MetricsSamplerOptions& options, std::ostream* out);

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  ~MetricsSampler() { Stop(); }

  /// Stops the sampling thread and writes the final sample. Idempotent.
  void Stop() FIM_EXCLUDES(mutex_);

  /// Flushes the output stream. Safe to call at any time from the
  /// owning thread; the fatal-signal hook calls it best-effort.
  void FlushOutput() { out_->flush(); }

  /// Samples written so far (monotone; final value after Stop()).
  std::uint64_t SamplesWritten() const;

 private:
  void Run() FIM_EXCLUDES(mutex_);
  void EmitSample();

  const MetricsSamplerOptions options_;
  std::ostream* const out_;
  const std::chrono::steady_clock::time_point start_;

  Mutex mutex_{LockRank::kMetricsSampler, "MetricsSampler"};
  CondVar wake_;
  bool stopping_ FIM_GUARDED_BY(mutex_) = false;
  bool stopped_ FIM_GUARDED_BY(mutex_) = false;

  // Sampler-thread state (touched by Stop() only after the join); the
  // sequence number is atomic so SamplesWritten can poll it live.
  std::atomic<std::uint64_t> seq_{0};
  std::uint64_t last_throughput_value_ = 0;
  double last_sample_seconds_ = 0.0;

  std::thread thread_;
};

namespace internal {

/// Live samplers currently registered for exit-time flushing (bounded
/// by the slot table; construction past the bound just skips the
/// safety net). Exposed for tests.
std::size_t LiveSamplerCount();

/// The fatal-signal flush body: flushes every registered sampler's
/// stream. Exposed so tests can exercise it without raising a signal.
void FlushLiveSamplerStreams();

}  // namespace internal

}  // namespace fim::obs

#endif  // FIM_OBS_SAMPLER_H_

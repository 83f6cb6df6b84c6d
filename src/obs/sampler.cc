#include "obs/sampler.h"

#include <atomic>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

#include "common/timer.h"
#include "obs/json.h"
#include "obs/memory.h"

namespace fim::obs {

namespace {

// Exit-time safety net: live samplers register in a small lock-free
// slot table (lock-free so the fatal-signal path never blocks on a
// mutex an interrupted thread might hold). The first registration
// installs the atexit stop and — where the disposition is still
// SIG_DFL — best-effort fatal-signal flush handlers.
constexpr std::size_t kMaxLiveSamplers = 8;
std::atomic<MetricsSampler*> g_live_samplers[kMaxLiveSamplers];
std::atomic<bool> g_exit_hooks_installed{false};

void RegisterLiveSampler(MetricsSampler* sampler) {
  for (auto& slot : g_live_samplers) {
    MetricsSampler* expected = nullptr;
    if (slot.compare_exchange_strong(expected, sampler,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
  // Table full: the sampler still works, it just misses the exit net.
}

void DeregisterLiveSampler(MetricsSampler* sampler) {
  for (auto& slot : g_live_samplers) {
    MetricsSampler* expected = sampler;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

// std::exit skips local destructors, so a sampler owned by main would
// otherwise die un-stopped: stop (join + final sample + flush) whatever
// is still registered.
void StopLiveSamplersAtExit() {
  for (auto& slot : g_live_samplers) {
    MetricsSampler* sampler = slot.load(std::memory_order_acquire);
    if (sampler != nullptr) sampler->Stop();
  }
}

#if defined(__unix__) || defined(__APPLE__)
// Best-effort: ostream::flush is not async-signal-safe, but every
// complete sample line is already flushed at write time — this only
// pushes out whatever a dying process still buffers, and the process
// re-raises to its death right after.
void FatalSignalFlush(int signum) {
  internal::FlushLiveSamplerStreams();
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}
#endif

void InstallExitHooksOnce() {
  bool expected = false;
  if (!g_exit_hooks_installed.compare_exchange_strong(expected, true)) {
    return;
  }
  std::atexit(&StopLiveSamplersAtExit);
#if defined(__unix__) || defined(__APPLE__)
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) {
    struct sigaction current {};
    if (sigaction(sig, nullptr, &current) != 0) continue;
    // Respect anyone else's handler (and explicit SIG_IGN): only claim
    // signals that would have killed the process silently.
    if (current.sa_handler != SIG_DFL) continue;
    struct sigaction action {};
    action.sa_handler = &FatalSignalFlush;
    sigemptyset(&action.sa_mask);
    sigaction(sig, &action, nullptr);
  }
#endif
}

}  // namespace

namespace internal {

std::size_t LiveSamplerCount() {
  std::size_t count = 0;
  for (auto& slot : g_live_samplers) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

void FlushLiveSamplerStreams() {
  for (auto& slot : g_live_samplers) {
    MetricsSampler* sampler = slot.load(std::memory_order_acquire);
    if (sampler != nullptr) sampler->FlushOutput();
  }
}

}  // namespace internal

MetricsSampler::MetricsSampler(const MetricsSamplerOptions& options,
                               std::ostream* out)
    : options_(options), out_(out), start_(std::chrono::steady_clock::now()) {
  InstallExitHooksOnce();
  RegisterLiveSampler(this);
  thread_ = std::thread([this]() { Run(); });
}

void MetricsSampler::Stop() {
  {
    const MutexLock lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
  }
  wake_.NotifyAll();
  thread_.join();
  // The thread is gone; emit the final sample from here so short runs
  // always produce at least one line and the series covers the full run.
  EmitSample();
  out_->flush();
  {
    const MutexLock lock(mutex_);
    stopped_ = true;
  }
  DeregisterLiveSampler(this);
}

std::uint64_t MetricsSampler::SamplesWritten() const {
  return seq_.load(std::memory_order_relaxed);
}

void MetricsSampler::Run() {
  for (;;) {
    {
      const MutexLock lock(mutex_);
      // One period per iteration; WaitUntil re-checks stopping_ against
      // spurious wakeups without extending the deadline.
      const auto deadline = std::chrono::steady_clock::now() + options_.period;
      while (!stopping_) {
        if (wake_.WaitUntil(mutex_, deadline)) break;
      }
      if (stopping_) return;
    }
    EmitSample();
  }
}

void MetricsSampler::EmitSample() {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema");
  writer.String("fim-statsline-v1");
  writer.Key("seq");
  writer.Number(seq_);
  writer.Key("elapsed_seconds");
  writer.Number(elapsed);
  writer.Key("peak_rss_bytes");
  writer.Number(static_cast<std::uint64_t>(PeakRss()));

  // Live memory lane: the self-measured accounted bytes (when a source
  // is attached) and the allocation tracker's exact live bytes (when
  // compiled in). Absent fields mean "not measured", never 0.
  std::size_t accounted = 0;
  const bool have_accounted = static_cast<bool>(options_.accounted_bytes);
  if (have_accounted) accounted = options_.accounted_bytes();
  const MemProfileSnapshot profile = SnapshotMemProfile();
  if (have_accounted || profile.enabled) {
    writer.Key("mem");
    writer.BeginObject();
    if (have_accounted) {
      writer.Key("accounted_bytes");
      writer.Number(static_cast<std::uint64_t>(accounted));
    }
    if (profile.enabled) {
      writer.Key("live_bytes");
      writer.Number(profile.live_bytes);
    }
    writer.EndObject();
  }

  if (options_.counters) {
    const auto counters = options_.counters();
    if (!options_.throughput_counter.empty()) {
      std::uint64_t value = 0;
      for (const auto& [name, count] : counters) {
        if (name == options_.throughput_counter) value = count;
      }
      const double dt = elapsed - last_sample_seconds_;
      const double rate =
          dt > 0.0
              ? static_cast<double>(value - last_throughput_value_) / dt
              : 0.0;
      last_throughput_value_ = value;
      writer.Key("tx_per_second");
      writer.Number(rate);
    }
    writer.Key("counters");
    writer.BeginObject();
    for (const auto& [name, value] : counters) {
      writer.Key(name);
      writer.Number(value);
    }
    writer.EndObject();
  }
  writer.EndObject();

  last_sample_seconds_ = elapsed;
  // One line per sample, flushed immediately so the series is tailable.
  *out_ << std::move(writer).Take() << '\n';
  out_->flush();
  seq_.fetch_add(1, std::memory_order_relaxed);

  if (options_.lane != nullptr) {
    options_.lane->Instant("sample");
    options_.lane->Counter("rss_mib", BytesToMib(PeakRss()));
    if (have_accounted) {
      options_.lane->Counter("mem.accounted_mib", BytesToMib(accounted));
    }
    if (profile.enabled) {
      options_.lane->Counter("mem.live_mib",
                             BytesToMib(profile.live_bytes));
    }
  }
}

}  // namespace fim::obs

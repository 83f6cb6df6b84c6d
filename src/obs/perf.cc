#include "obs/perf.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fim::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double Ratio(std::uint64_t numer, std::uint64_t denom, unsigned mask,
             PerfEvent numer_event, PerfEvent denom_event) {
  if ((mask & PerfEventBit(numer_event)) == 0 ||
      (mask & PerfEventBit(denom_event)) == 0 || denom == 0) {
    return kNan;
  }
  return static_cast<double>(numer) / static_cast<double>(denom);
}

#if defined(__linux__)

/// type + config per PerfEvent index, in enum order.
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr EventSpec kEventSpecs[kNumPerfEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8U) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16U)},
};

int OpenPerfEvent(const EventSpec& spec, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  // The leader starts disabled; Start() enables the whole group at
  // once. Members inherit the leader's enable state.
  attr.disabled = group_fd == -1 ? 1 : 0;
  // Count user space only: works under perf_event_paranoid <= 2 without
  // privileges, and the mining work we attribute is all user space.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, any CPU (counters migrate with it).
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1,
                                  group_fd, PERF_FLAG_FD_CLOEXEC));
}

#endif  // defined(__linux__)

}  // namespace

namespace internal {

std::uint64_t ScalePerfCount(std::uint64_t raw, std::uint64_t enabled,
                             std::uint64_t running) {
  if (raw == 0 || running == 0) return 0;  // never scheduled: no basis
  if (running >= enabled) return raw;      // on the PMU the whole time
  const double scaled = static_cast<double>(raw) *
                        (static_cast<double>(enabled) /
                         static_cast<double>(running));
  return static_cast<std::uint64_t>(scaled);
}

std::string DescribePerfOpenFailure(int saved_errno) {
  std::string reason = "perf_event_open failed: ";
  reason += std::strerror(saved_errno);  // NOLINT(concurrency-mt-unsafe)
  switch (saved_errno) {
    case EACCES:
    case EPERM: {
      reason += " (kernel.perf_event_paranoid=";
      long paranoid = -100;
      if (std::FILE* f =
              std::fopen("/proc/sys/kernel/perf_event_paranoid", "re")) {
        char buf[32] = {};
        if (std::fgets(buf, sizeof(buf), f) != nullptr) {
          paranoid = std::strtol(buf, nullptr, 10);
        }
        std::fclose(f);
      }
      if (paranoid == -100) {
        reason += "unreadable";
      } else {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%ld", paranoid);
        reason += buf;
      }
      reason += " denies unprivileged counters; lower it or grant "
                "CAP_PERFMON)";
      break;
    }
    case ENOENT:
      reason += " (PMU hardware events unsupported on this host — "
                "typical in VMs/containers without a virtualized PMU)";
      break;
    case ENOSYS:
      reason += " (kernel built without perf events)";
      break;
    default:
      break;
  }
  return reason;
}

}  // namespace internal

double PerfCounts::Ipc() const {
  return Ratio(instructions, cycles, opened_mask, PerfEvent::kInstructions,
               PerfEvent::kCycles);
}

double PerfCounts::LlcMissRate() const {
  return Ratio(cache_misses, cache_references, opened_mask,
               PerfEvent::kCacheMisses, PerfEvent::kCacheReferences);
}

double PerfCounts::BranchMissRate() const {
  return Ratio(branch_misses, branch_instructions, opened_mask,
               PerfEvent::kBranchMisses, PerfEvent::kBranchInstructions);
}

double PerfCounts::MultiplexScale() const {
  if (time_enabled_ns == 0) return kNan;
  return static_cast<double>(time_running_ns) /
         static_cast<double>(time_enabled_ns);
}

void PerfCounts::Accumulate(const PerfCounts& other) {
  cycles += other.cycles;
  instructions += other.instructions;
  cache_references += other.cache_references;
  cache_misses += other.cache_misses;
  branch_instructions += other.branch_instructions;
  branch_misses += other.branch_misses;
  l1d_misses += other.l1d_misses;
  time_enabled_ns += other.time_enabled_ns;
  time_running_ns += other.time_running_ns;
  opened_mask |= other.opened_mask;
}

PerfCounts PerfCounts::DeltaSince(const PerfCounts& earlier) const {
  auto sub = [](std::uint64_t now, std::uint64_t then) {
    return now >= then ? now - then : 0;
  };
  PerfCounts d;
  d.cycles = sub(cycles, earlier.cycles);
  d.instructions = sub(instructions, earlier.instructions);
  d.cache_references = sub(cache_references, earlier.cache_references);
  d.cache_misses = sub(cache_misses, earlier.cache_misses);
  d.branch_instructions = sub(branch_instructions, earlier.branch_instructions);
  d.branch_misses = sub(branch_misses, earlier.branch_misses);
  d.l1d_misses = sub(l1d_misses, earlier.l1d_misses);
  d.time_enabled_ns = sub(time_enabled_ns, earlier.time_enabled_ns);
  d.time_running_ns = sub(time_running_ns, earlier.time_running_ns);
  d.opened_mask = opened_mask;
  return d;
}

PerfCounterSet::PerfCounterSet() {
  for (unsigned i = 0; i < kNumPerfEvents; ++i) {
    fds_[i] = -1;
    slot_of_event_[i] = -1;
  }
#if defined(__linux__)
  // The leader (cycles) decides availability; a leader failure is the
  // canonical "denied / no PMU" case and carries the reason.
  group_fd_ = OpenPerfEvent(kEventSpecs[0], -1);
  if (group_fd_ < 0) {
    avail_.reason = internal::DescribePerfOpenFailure(errno);
    return;
  }
  fds_[0] = group_fd_;
  slot_of_event_[0] = 0;
  avail_.opened_mask = PerfEventBit(PerfEvent::kCycles);
  num_open_ = 1;
  // Members are best-effort: a CPU without, say, an LLC-miss event just
  // leaves that bit unset and the derived rate NaN.
  for (unsigned i = 1; i < kNumPerfEvents; ++i) {
    const int fd = OpenPerfEvent(kEventSpecs[i], group_fd_);
    if (fd < 0) continue;
    fds_[i] = fd;
    slot_of_event_[i] = static_cast<int>(num_open_);
    avail_.opened_mask |= 1U << i;
    ++num_open_;
  }
  avail_.available = true;
#else
  avail_.reason = "hardware counters require Linux perf_event_open";
#endif
}

PerfCounterSet::~PerfCounterSet() {
#if defined(__linux__)
  for (unsigned i = 0; i < kNumPerfEvents; ++i) {
    if (fds_[i] >= 0) close(fds_[i]);
  }
#endif
}

bool PerfCounterSet::Start() {
#if defined(__linux__)
  if (!avail_.available) return false;
  ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return true;
#else
  return false;
#endif
}

void PerfCounterSet::Stop() {
#if defined(__linux__)
  if (!avail_.available) return;
  ioctl(group_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
#endif
}

PerfCounts PerfCounterSet::Read() const {
  PerfCounts counts;
#if defined(__linux__)
  if (!avail_.available) return counts;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
  std::uint64_t buf[3 + kNumPerfEvents] = {};
  const ssize_t want = static_cast<ssize_t>((3 + num_open_) * sizeof(buf[0]));
  if (read(group_fd_, buf, static_cast<std::size_t>(want)) != want) {
    return counts;
  }
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  auto value = [&](PerfEvent e) -> std::uint64_t {
    const int slot = slot_of_event_[static_cast<unsigned>(e)];
    if (slot < 0) return 0;
    return internal::ScalePerfCount(buf[3 + slot], enabled, running);
  };
  counts.cycles = value(PerfEvent::kCycles);
  counts.instructions = value(PerfEvent::kInstructions);
  counts.cache_references = value(PerfEvent::kCacheReferences);
  counts.cache_misses = value(PerfEvent::kCacheMisses);
  counts.branch_instructions = value(PerfEvent::kBranchInstructions);
  counts.branch_misses = value(PerfEvent::kBranchMisses);
  counts.l1d_misses = value(PerfEvent::kL1dMisses);
  counts.time_enabled_ns = enabled;
  counts.time_running_ns = running;
  counts.opened_mask = avail_.opened_mask;
#endif
  return counts;
}

PerfAvailability ProbePerfCounters() {
  PerfCounterSet probe;
  return probe.availability();
}

ResourceUsage ReadResourceUsage() {
  ResourceUsage usage;
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return usage;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  usage.known = true;
  usage.user_seconds = seconds(ru.ru_utime);
  usage.system_seconds = seconds(ru.ru_stime);
  usage.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  usage.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  usage.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  usage.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
#endif
  return usage;
}

}  // namespace fim::obs

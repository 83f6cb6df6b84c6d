// fim-stream: continuous closed-item-set mining over a transaction
// stream (src/stream/). Replays a FIMI file — or reads stdin line by
// line — into a StreamMiner, answering exact snapshot queries along the
// way and optionally checkpointing/resuming the miner state.
//
//   fim-stream [-s minsupp] [--pane=N --window=W] [--query-every=N]
//              [--checkpoint=PATH] [--checkpoint-every=N] [--resume=PATH]
//              [--max-items=N] [-q] [--stats[=text|json]]
//              [--stats-out=PATH] [--trace-out=PATH] [--perf-counters]
//              [--mem-stats] [--profile[=PATH]] [--sample-every=MS]
//              [--sample-out=PATH] [input [output]]
//
//   -s N        minimum support of every snapshot query (default: 2)
//   --pane=N    transactions per tumbling pane (sliding-window mode;
//               requires --window)
//   --window=W  number of live panes a snapshot covers (requires --pane).
//               Without --pane/--window the miner runs in landmark mode:
//               every snapshot covers the whole stream so far.
//   --query-every=N
//               emit an intermediate snapshot after every N ingested
//               transactions, preceded by a "# snapshot tx=T sets=S"
//               header line (T counts from the start of the stream, so a
//               resumed run emits the same headers at the same points)
//   --checkpoint=PATH
//               write a fim-stream-v2 checkpoint of the full miner state
//               to PATH after the input is exhausted
//   --checkpoint-every=N
//               additionally checkpoint after every N transactions
//               (atomic: written to PATH.tmp, then renamed)
//   --resume=PATH
//               restore the miner from a checkpoint before ingesting;
//               mode and item capacity come from the checkpoint and
//               override --pane/--window/--max-items
//   --max-items=N
//               item-universe capacity; ingesting an item id >= N is an
//               error (default: 1048576)
//   -q          quiet: no progress line on stderr
//   --stats[=text|json], --stats-out=PATH
//               emit an execution-statistics report including the
//               stream.* counters and the miner's phase spans (rotate,
//               query, checkpoint; see docs/OBSERVABILITY.md)
//   --trace-out=PATH
//               record the miner's event timeline (ingest rotations,
//               seals, query sub-phases, checkpoints, plus the sampler's
//               lane) and write Chrome trace-event JSON to PATH
//   --perf-counters
//               measure hardware counters over the whole run and per
//               phase span, adding the `perf` section to the stats
//               report (implies --stats; degrades to an explicit
//               unavailable reason + rusage fallback where the kernel
//               denies the PMU)
//   --mem-stats
//               collect the per-structure memory breakdown (filling
//               rows, sealed blocks) and add the `memory`
//               section to the stats report (implies --stats); with
//               --sample-every the sampler's JSONL lines additionally
//               carry a live "mem" object
//   --profile[=PATH]
//               sampling self-profiler: fim-prof-v1 collapsed stacks to
//               stderr or PATH (flamegraph.pl-compatible)
//   --sample-every=MS
//               run a background metrics sampler: every MS milliseconds
//               (and once at shutdown) append one fim-statsline-v1 JSON
//               line — stream.* counters, tx/s throughput, peak RSS —
//               to --sample-out (default: stderr)
//   --sample-out=PATH
//               destination of the sampler's JSONL time-series
//   input       FIMI text file; "-" or absent: stdin (line-buffered —
//               suitable for live piping)
//   output      snapshot destination; "-" or absent: stdout
//
// After the input ends, the final snapshot is always printed in fim-mine
// format ("3 17 42 (57)" lines), so `fim-stream -s N input` on a finite
// file produces the same sets as `fim-mine -s N input` in landmark mode.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "data/itemset.h"
#include "obs/export.h"
#include "obs/sampler.h"
#include "obs/timeline.h"
#include "stream/stream_miner.h"
#include "tool_flags.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: fim-stream [-s minsupp] [--pane=N --window=W] "
      "[--query-every=N] [--checkpoint=PATH] [--checkpoint-every=N] "
      "[--resume=PATH] [--max-items=N] [-q] [--stats[=text|json]] "
      "[--stats-out=PATH] [--trace-out=PATH] [--perf-counters] "
      "[--mem-stats] [--profile[=PATH]] [--sample-every=MS] "
      "[--sample-out=PATH] [input [output]]\n");
}

struct Args {
  fim::Support min_support = 2;
  std::size_t pane_size = 0;
  std::size_t window_panes = 0;
  std::uint64_t query_every = 0;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_path;
  std::size_t max_items = std::size_t{1} << 20;
  bool quiet = false;
  fim::tools::ObsSession obs;
  std::uint64_t sample_every_ms = 0;
  std::string sample_out;
  std::string input = "-";
  std::string output = "-";
};

/// Fills `args` from the command line; returns -1 to proceed, otherwise
/// the process exit code.
int ParseArgs(int argc, char** argv, Args* args) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "-s") == 0) {
      args->min_support =
          static_cast<fim::Support>(fim::tools::ParseCount("-s", next_value()));
    } else if (std::strncmp(arg, "--pane=", 7) == 0) {
      args->pane_size =
          static_cast<std::size_t>(fim::tools::ParseCount("--pane", arg + 7));
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      args->window_panes =
          static_cast<std::size_t>(fim::tools::ParseCount("--window", arg + 9));
    } else if (std::strncmp(arg, "--query-every=", 14) == 0) {
      args->query_every =
          static_cast<std::uint64_t>(fim::tools::ParseCount("--query-every", arg + 14));
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      args->checkpoint_path = arg + 13;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      args->checkpoint_every = static_cast<std::uint64_t>(
          fim::tools::ParseCount("--checkpoint-every", arg + 19));
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      args->resume_path = arg + 9;
    } else if (std::strncmp(arg, "--max-items=", 12) == 0) {
      args->max_items =
          static_cast<std::size_t>(fim::tools::ParseCount("--max-items", arg + 12));
    } else if (std::strcmp(arg, "-q") == 0) {
      args->quiet = true;
    } else if (args->obs.Parse(arg)) {
      // one of the observability flags (tool_flags.h)
    } else if (std::strncmp(arg, "--sample-every=", 15) == 0) {
      args->sample_every_ms = static_cast<std::uint64_t>(
          fim::tools::ParseCount("--sample-every", arg + 15));
    } else if (std::strncmp(arg, "--sample-out=", 13) == 0) {
      args->sample_out = arg + 13;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      Usage();
      return 0;
    } else if (positional == 0) {
      args->input = arg;
      ++positional;
    } else if (positional == 1) {
      args->output = arg;
      ++positional;
    } else {
      Usage();
      return 2;
    }
  }
  if ((args->pane_size == 0) != (args->window_panes == 0)) {
    std::fprintf(stderr,
                 "error: --pane and --window must be given together\n");
    return 2;
  }
  if (args->min_support == 0 || args->max_items == 0) {
    std::fprintf(stderr, "error: -s and --max-items must be >= 1\n");
    return 2;
  }
  if (!args->sample_out.empty() && args->sample_every_ms == 0) {
    std::fprintf(stderr, "error: --sample-out needs --sample-every=MS\n");
    return 2;
  }
  if (args->checkpoint_every > 0 && args->checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every needs --checkpoint=PATH\n");
    return 2;
  }
  return -1;
}

/// Parses one FIMI line into items. Returns false for blank/comment
/// lines; a negative token is reported as a parse error via `error`.
bool ParseLine(const std::string& line, std::vector<fim::ItemId>* items,
               bool* error) {
  items->clear();
  *error = false;
  const char* p = line.c_str();
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  if (*p == '\0' || *p == '#') return false;
  while (*p != '\0') {
    char* end = nullptr;
    const long long value = std::strtoll(p, &end, 10);
    if (end == p || value < 0) {
      *error = true;
      return false;
    }
    items->push_back(static_cast<fim::ItemId>(value));
    p = end;
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  }
  return !items->empty();
}

int PrintSnapshot(fim::StreamMiner& miner, fim::Support min_support,
                  std::ostream& out, std::size_t* num_sets) {
  std::size_t count = 0;
  fim::Status status = miner.Query(
      min_support, [&](std::span<const fim::ItemId> items,
                       fim::Support support) {
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i > 0) out << ' ';
          out << items[i];
        }
        out << " (" << support << ")\n";
        ++count;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
    return 1;
  }
  *num_sets = count;
  return 0;
}

int WriteCheckpoint(fim::StreamMiner& miner, const std::string& path) {
  // Write-then-rename, so a reader (or a crash) never sees a torn file.
  const std::string tmp = path + ".tmp";
  fim::Status status = miner.Checkpoint(tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = fim::Status::IoError("cannot rename " + tmp + " to " + path);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fim;

  Args args;
  if (int rc = ParseArgs(argc, argv, &args); rc >= 0) return rc;

  WallTimer total;
  CpuTimer total_cpu;
  args.obs.Start();

  std::unique_ptr<StreamMiner> miner;
  if (!args.resume_path.empty()) {
    auto restored = StreamMiner::Restore(args.resume_path, args.obs.trace());
    if (!restored.ok()) {
      std::fprintf(stderr, "error restoring %s: %s\n",
                   args.resume_path.c_str(),
                   restored.status().ToString().c_str());
      return 1;
    }
    miner = std::move(restored).value();
    if (!args.quiet) {
      std::fprintf(stderr, "fim-stream: resumed at tx %llu from %s\n",
                   static_cast<unsigned long long>(miner->NumTransactions()),
                   args.resume_path.c_str());
    }
  } else {
    StreamMinerOptions options;
    options.max_items = args.max_items;
    options.pane_size = args.pane_size;
    options.window_panes = args.window_panes;
    options.trace = args.obs.trace();
    miner = std::make_unique<StreamMiner>(options);
  }

  // Background metrics sampler (--sample-every): one fim-statsline-v1
  // JSON line per period plus a final one at Stop(). The sampler thread
  // records on its own timeline lane, never on the driver's.
  std::ofstream sample_file;
  std::unique_ptr<obs::MetricsSampler> sampler;
  if (args.sample_every_ms > 0) {
    std::ostream* sample_stream = &std::cerr;
    if (!args.sample_out.empty()) {
      sample_file.open(args.sample_out, std::ios::trunc);
      if (!sample_file) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     args.sample_out.c_str());
        return 1;
      }
      sample_stream = &sample_file;
    }
    obs::MetricsSamplerOptions sampler_options;
    sampler_options.period =
        std::chrono::milliseconds(args.sample_every_ms);
    // Stats() is O(1) and ApproxMemoryUsage() an O(blocks) walk under
    // the miner's mutex, cheap at sampler cadence.
    StreamMiner* sampled = miner.get();
    sampler_options.counters = [sampled]() {
      return sampled->Stats().Counters();
    };
    sampler_options.throughput_counter = "stream.transactions_ingested";
    sampler_options.lane = args.obs.timeline() != nullptr
                               ? args.obs.timeline()->AddLane("sampler")
                               : nullptr;
    if (args.obs.memory() != nullptr) {
      // Live heap timeline: each sample re-measures the miner.
      sampler_options.accounted_bytes = [sampled]() {
        return sampled->ApproxMemoryUsage().TotalBytes();
      };
    }
    sampler =
        std::make_unique<obs::MetricsSampler>(sampler_options, sample_stream);
  }

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (args.input != "-") {
    file_in.open(args.input);
    if (!file_in) {
      std::fprintf(stderr, "error: cannot open %s\n", args.input.c_str());
      return 1;
    }
    in = &file_in;
  }
  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (args.output != "-") {
    file_out.open(args.output, std::ios::trunc);
    if (!file_out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   args.output.c_str());
      return 1;
    }
    out = &file_out;
  }

  std::string line;
  std::vector<ItemId> items;
  std::uint64_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    bool parse_error = false;
    if (!ParseLine(line, &items, &parse_error)) {
      if (parse_error) {
        std::fprintf(stderr, "error: %s line %llu: not a FIMI transaction\n",
                     args.input.c_str(),
                     static_cast<unsigned long long>(line_number));
        return 1;
      }
      continue;  // blank or comment line
    }
    Status status = miner->AddTransaction(items);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s line %llu: %s\n", args.input.c_str(),
                   static_cast<unsigned long long>(line_number),
                   status.ToString().c_str());
      return 1;
    }
    const std::uint64_t ingested = miner->NumTransactions();
    if (args.query_every > 0 && ingested % args.query_every == 0) {
      // The header carries the absolute stream position, so snapshots of
      // a resumed run line up with the uninterrupted one.
      std::size_t num_sets = 0;
      std::ostringstream snapshot;
      if (int rc =
              PrintSnapshot(*miner, args.min_support, snapshot, &num_sets);
          rc != 0) {
        return rc;
      }
      *out << "# snapshot tx=" << ingested << " sets=" << num_sets << "\n"
           << snapshot.str();
      out->flush();
    }
    if (args.checkpoint_every > 0 && ingested % args.checkpoint_every == 0) {
      if (int rc = WriteCheckpoint(*miner, args.checkpoint_path); rc != 0) {
        return rc;
      }
    }
  }

  std::size_t num_sets = 0;
  if (args.query_every > 0) {
    *out << "# final tx=" << miner->NumTransactions() << "\n";
  }
  if (int rc = PrintSnapshot(*miner, args.min_support, *out, &num_sets);
      rc != 0) {
    return rc;
  }
  out->flush();
  if (!args.checkpoint_path.empty()) {
    if (int rc = WriteCheckpoint(*miner, args.checkpoint_path); rc != 0) {
      return rc;
    }
  }

  // Quiesce the sampler before exporting: its final sample lands in the
  // JSONL series and its lane stops receiving events, so the trace
  // export in Finish observes a fully written timeline.
  if (sampler != nullptr) sampler->Stop();
  if (args.obs.memory() != nullptr) {
    args.obs.memory()->Record(miner->ApproxMemoryUsage());
  }

  const StreamStats stream_stats = miner->Stats();
  if (!args.quiet) {
    std::fprintf(
        stderr,
        "fim-stream: %llu transactions (%llu panes), %zu sets at smin %u, "
        "%.3fs\n",
        static_cast<unsigned long long>(stream_stats.transactions_ingested),
        static_cast<unsigned long long>(stream_stats.panes_rotated),
        num_sets, args.min_support, total.Seconds());
  }
  obs::StatsReport report;
  report.tool = "fim-stream";
  report.algorithm =
      miner->options().pane_size > 0 ? "stream-window" : "stream-landmark";
  report.min_support = args.min_support;
  report.num_sets = num_sets;
  report.wall_seconds = total.Seconds();
  report.cpu_seconds = total_cpu.Seconds();
  report.extra_counters = stream_stats.Counters();
  return args.obs.Finish(std::move(report));
}

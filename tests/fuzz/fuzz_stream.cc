// libFuzzer harness for the `fim-stream-v2` checkpoint loader
// (StreamMiner::RestoreFrom) — counters, pane bookkeeping and the
// covered rows. Every input must restore cleanly or fail with a clean
// InvalidArgument; a checkpoint that restores must itself checkpoint
// again, and that second-generation checkpoint must restore too (the
// write path and the read path agree on the format).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "stream/stream_miner.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (size_t{1} << 20)) return 0;
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
  auto miner = fim::StreamMiner::RestoreFrom(in);
  if (!miner.ok()) return 0;
  std::ostringstream out;
  if (!miner.value()->CheckpointTo(out).ok()) __builtin_trap();
  std::istringstream second(out.str());
  auto restored = fim::StreamMiner::RestoreFrom(second);
  if (!restored.ok()) __builtin_trap();
  return 0;
}

// Seed-corpus generator for the fuzz harnesses. Binary seeds (the
// fim-stream-v2 checkpoints) are produced from the live serializer at
// build time instead of being checked in, so the corpora track format
// changes automatically; the text FIMI seeds live in
// tests/fuzz/corpus/fimi/ under version control. Usage:
//
//   fuzz_make_seeds <output-dir>
//
// creates <output-dir>/{fimi,stream}/ and fills each with a handful of
// valid blobs plus a truncated and a bit-flipped variant
// (the loaders must reject those cleanly, and the mutants give the
// fuzzer a head start on the interesting error paths).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/fimi_io.h"
#include "data/transaction_database.h"
#include "stream/stream_miner.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  FIM_CHECK(out.good()) << "cannot create seed " << (dir / name).string();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FIM_CHECK(out.good()) << "short write for seed " << (dir / name).string();
}

// Valid blob plus the two canonical mutants every loader must survive.
void WriteSeedFamily(const std::filesystem::path& dir, const std::string& stem,
                     const std::string& bytes) {
  WriteSeed(dir, stem + ".bin", bytes);
  if (bytes.size() > 8)
    WriteSeed(dir, stem + "_truncated.bin", bytes.substr(0, bytes.size() / 2));
  if (!bytes.empty()) {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(flipped[flipped.size() / 2]) ^ 0x5a);
    WriteSeed(dir, stem + "_bitflip.bin", flipped);
  }
}

// The example stream from the paper-derived tests: small, with
// duplicate runs and overlapping itemsets.
const std::vector<std::vector<fim::ItemId>>& SampleTransactions() {
  static const std::vector<std::vector<fim::ItemId>> kTransactions = {
      {0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {0, 2, 3, 4},
      {4},       {0, 1},    {2, 3},    {0, 1, 2, 3, 4},
  };
  return kTransactions;
}

std::string StreamCheckpoint(std::size_t pane_size, std::size_t window_panes) {
  fim::StreamMinerOptions options;
  options.max_items = 8;
  options.pane_size = pane_size;
  options.window_panes = window_panes;
  fim::StreamMiner miner(options);
  for (const auto& txn : SampleTransactions())
    FIM_CHECK(miner.AddTransaction(txn).ok());
  std::ostringstream out;
  FIM_CHECK(miner.CheckpointTo(out).ok());
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path fimi_dir = root / "fimi";
  const std::filesystem::path stream_dir = root / "stream";
  std::filesystem::create_directories(fimi_dir);
  std::filesystem::create_directories(stream_dir);

  // FIMI: render the sample database through the real writer (the
  // checked-in corpus under tests/fuzz/corpus/fimi/ covers the
  // hand-written edge cases; this one tracks the writer).
  fim::TransactionDatabase db;
  for (const auto& txn : SampleTransactions()) db.AddTransaction(txn);
  WriteSeed(fimi_dir, "sample.fimi", fim::ToFimiString(db));

  WriteSeedFamily(stream_dir, "stream_landmark", StreamCheckpoint(0, 0));
  WriteSeedFamily(stream_dir, "stream_window", StreamCheckpoint(3, 2));

  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}

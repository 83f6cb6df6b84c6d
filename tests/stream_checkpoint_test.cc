// Tests of StreamMiner checkpoint/restore (fim-stream-v2): a restored
// miner must continue the stream with output bit-identical to the
// uninterrupted one, and corrupted, truncated or version-1 input must be
// rejected with a clean Status.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/binary_io.h"
#include "data/generators.h"
#include "stream/stream_miner.h"

namespace fim {
namespace {

void IngestSlice(StreamMiner* miner, const TransactionDatabase& db,
                 std::size_t begin, std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    ASSERT_TRUE(miner->AddTransaction(db.transaction(k)).ok());
  }
}

void ExpectResumeBitIdentical(const StreamMinerOptions& options,
                              unsigned num_threads) {
  const TransactionDatabase db = GenerateRandomDense(120, 16, 0.3, 42);
  StreamMiner uninterrupted(options);
  StreamMiner first_half(options);
  const std::size_t cut = 70;  // deliberately mid-pane for windowed runs
  if (num_threads == 1) {
    IngestSlice(&uninterrupted, db, 0, cut);
    IngestSlice(&first_half, db, 0, cut);
  } else {
    // Each miner ingests its prefix with `num_threads` concurrent
    // writers over disjoint slices. The two miners see different
    // interleavings — checkpointing must still hand over an exact
    // snapshot of whatever multiset was ingested.
    for (StreamMiner* miner : {&uninterrupted, &first_half}) {
      std::vector<std::thread> writers;
      const std::size_t chunk = cut / num_threads;
      for (unsigned t = 0; t < num_threads; ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = t + 1 == num_threads ? cut : begin + chunk;
        writers.emplace_back(IngestSlice, miner, std::cref(db), begin, end);
      }
      for (auto& w : writers) w.join();
    }
  }

  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(first_half.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamMiner& resumed = *restored.value();
  EXPECT_EQ(resumed.NumTransactions(), first_half.NumTransactions());
  EXPECT_EQ(resumed.CurrentPaneIndex(), first_half.CurrentPaneIndex());

  // With a single writer the ingest order was deterministic, so the
  // restored snapshot must equal the uninterrupted miner's too; with
  // several writers, compare against the miner that was checkpointed.
  auto before_resumed = resumed.QueryCollect(2);
  auto before_source = first_half.QueryCollect(2);
  ASSERT_TRUE(before_resumed.ok());
  ASSERT_TRUE(before_source.ok());
  EXPECT_EQ(before_resumed.value(), before_source.value());

  // Continue both streams sequentially: every subsequent snapshot of
  // the resumed miner must be exactly the uninterrupted miner's.
  if (num_threads == 1) {
    for (std::size_t k = cut; k < db.NumTransactions(); ++k) {
      ASSERT_TRUE(uninterrupted.AddTransaction(db.transaction(k)).ok());
      ASSERT_TRUE(resumed.AddTransaction(db.transaction(k)).ok());
      auto a = uninterrupted.QueryCollect(2);
      auto b = resumed.QueryCollect(2);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "after tx " << (k + 1);
    }
    auto a = uninterrupted.QueryCollect(1);
    auto b = resumed.QueryCollect(1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  } else {
    IngestSlice(&first_half, db, cut, db.NumTransactions());
    IngestSlice(&resumed, db, cut, db.NumTransactions());
    auto a = first_half.QueryCollect(2);
    auto b = resumed.QueryCollect(2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
}

TEST(StreamCheckpointTest, LandmarkResumeBitIdentical) {
  StreamMinerOptions options;
  options.max_items = 16;
  ExpectResumeBitIdentical(options, /*num_threads=*/1);
}

TEST(StreamCheckpointTest, WindowedResumeBitIdentical) {
  StreamMinerOptions options;
  options.max_items = 16;
  options.pane_size = 8;
  options.window_panes = 4;
  ExpectResumeBitIdentical(options, /*num_threads=*/1);
}

TEST(StreamCheckpointTest, LandmarkResumeBitIdenticalFourThreads) {
  StreamMinerOptions options;
  options.max_items = 16;
  ExpectResumeBitIdentical(options, /*num_threads=*/4);
}

TEST(StreamCheckpointTest, WindowedResumeBitIdenticalFourThreads) {
  StreamMinerOptions options;
  options.max_items = 16;
  options.pane_size = 8;
  options.window_panes = 4;
  ExpectResumeBitIdentical(options, /*num_threads=*/4);
}

TEST(StreamCheckpointTest, PendingDuplicateRunSurvivesCheckpoint) {
  // A run of identical rows that straddles the checkpoint counts every
  // copy on both sides, exactly as in the uninterrupted miner.
  StreamMinerOptions options;
  options.max_items = 8;
  StreamMiner miner(options);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  }
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(restored.value()->AddTransaction({1, 2, 3}).ok());
  ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  auto sets = restored.value()->QueryCollect(1);
  auto uninterrupted = miner.QueryCollect(1);
  ASSERT_TRUE(sets.ok());
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_EQ(sets.value().size(), 1u);
  EXPECT_EQ(sets.value()[0].support, 4u);
  EXPECT_EQ(sets.value(), uninterrupted.value());
}

TEST(StreamCheckpointTest, CheckpointDuringConcurrentIngest) {
  const TransactionDatabase db = GenerateRandomDense(400, 12, 0.3, 8);
  StreamMinerOptions options;
  options.max_items = 12;
  options.pane_size = 16;
  options.window_panes = 4;
  StreamMiner miner(options);
  std::thread writer(IngestSlice, &miner, std::cref(db), std::size_t{0},
                     db.NumTransactions());
  for (int round = 0; round < 5; ++round) {
    std::stringstream checkpoint(std::ios::in | std::ios::out |
                                 std::ios::binary);
    ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
    auto restored = StreamMiner::RestoreFrom(checkpoint);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_LE(restored.value()->NumTransactions(), db.NumTransactions());
    EXPECT_TRUE(restored.value()->QueryCollect(2).ok());
  }
  writer.join();
}

TEST(StreamCheckpointTest, RestoredCountersMirrorIntoRegistry) {
  StreamMinerOptions options;
  options.max_items = 8;
  StreamMiner miner(options);
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(miner.AddTransaction({1, 2}).ok());
  ASSERT_TRUE(miner.QueryCollect(1).ok());
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(checkpoint);
  ASSERT_TRUE(restored.ok());
  // The restored history is in the counter export from the first read
  // on: the pre-checkpoint values plus the bytes the restore read.
  const auto before = miner.Stats().Counters();
  const auto after = restored.value()->Stats().Counters();
  ASSERT_EQ(after.size(), before.size());
  const std::map<std::string, std::uint64_t> exported(after.begin(),
                                                       after.end());
  EXPECT_EQ(exported.at("stream.transactions_ingested"), 2u);
  EXPECT_EQ(exported.at("stream.queries"), 1u);
  EXPECT_GT(exported.at("stream.checkpoint_bytes_read"), 0u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_STREQ(after[i].first, before[i].first);
    const std::string name = after[i].first;
    if (name == "stream.checkpoint_bytes_read") continue;
    // The checkpoint froze its state before counting its own bytes.
    if (name == "stream.checkpoint_bytes_written") {
      EXPECT_EQ(after[i].second, 0u);
      continue;
    }
    EXPECT_EQ(after[i].second, before[i].second) << name;
  }
}

TEST(StreamCheckpointTest, RejectsCorruptCheckpoints) {
  StreamMinerOptions options;
  options.max_items = 10;
  options.pane_size = 3;
  options.window_panes = 2;
  StreamMiner miner(options);
  const TransactionDatabase db = GenerateRandomDense(10, 10, 0.4, 1);
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(miner.CheckpointTo(out).ok());
  const std::string good = out.str();
  {  // sanity: the untouched blob restores
    std::istringstream in(good, std::ios::binary);
    ASSERT_TRUE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // bad magic
    std::string bad = good;
    bad[0] = 'Z';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // unsupported version
    std::string bad = good;
    bad[4] = 9;
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  // Truncation at every stride: clean failure, no crash, no throw.
  for (std::size_t len = 0; len < good.size(); len += 7) {
    std::istringstream in(good.substr(0, len), std::ios::binary);
    auto result = StreamMiner::RestoreFrom(in);
    EXPECT_FALSE(result.ok()) << "length " << len;
  }
  {  // inconsistent pane bookkeeping: tamper the ingested count (header
     // offset 32 = magic 4 + version 4 + max_items/pane_size/window 24)
    std::string bad = good;
    bad[32] = static_cast<char>(bad[32] + 1);
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // a row item outside the universe: the last row's last item, just
     // before the end marker
    std::string bad = good;
    const std::size_t last_item = bad.size() - 4 - sizeof(ItemId);
    std::memset(&bad[last_item], 0xff, sizeof(ItemId));
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
  {  // missing end marker
    std::string bad = good.substr(0, good.size() - 4);
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(StreamMiner::RestoreFrom(in).ok());
  }
}

TEST(StreamCheckpointTest, RejectsVersionOneByName) {
  // A fim-stream-v1 file held prefix-tree segments, which this library
  // can no longer read: the header alone is enough to refuse it.
  std::ostringstream out(std::ios::binary);
  out.write("FIMS", 4);
  io::WritePod(out, uint32_t{1});
  io::WritePod(out, uint64_t{16});
  std::istringstream in(out.str(), std::ios::binary);
  auto result = StreamMiner::RestoreFrom(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("version 1"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace fim

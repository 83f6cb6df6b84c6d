// Tests of the streaming subsystem (src/stream/): every snapshot —
// landmark or windowed, interleaved or concurrent with ingest — must be
// exactly the closed frequent sets of the covered transaction multiset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/miner.h"
#include "common/sync.h"
#include "data/generators.h"
#include "ista/ista.h"
#include "stream/stream_miner.h"
#include "verify/compare.h"
#include "verify/oracle.h"

namespace fim {
namespace {

StreamMinerOptions Landmark(std::size_t max_items) {
  StreamMinerOptions options;
  options.max_items = max_items;
  return options;
}

StreamMinerOptions Windowed(std::size_t max_items, std::size_t pane_size,
                            std::size_t window_panes) {
  StreamMinerOptions options;
  options.max_items = max_items;
  options.pane_size = pane_size;
  options.window_panes = window_panes;
  return options;
}

TEST(StreamMinerTest, LandmarkMatchesBatchAfterEveryPrefix) {
  const TransactionDatabase db = GenerateRandomDense(12, 10, 0.4, 2026);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  std::uint64_t ingested = 0;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    // Duplicate bursts exercise the duplicate merging of the re-mine:
    // transaction k is ingested 1 + (k % 3) times in a row.
    const std::size_t copies = 1 + k % 3;
    for (std::size_t c = 0; c < copies; ++c) {
      ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
      prefix_db.AddTransaction(db.transaction(k));
      ++ingested;
    }
    EXPECT_EQ(miner.NumTransactions(), ingested);
    for (Support smin : {1u, 2u, 4u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      // Batch-mine the prefix (the prefixes outgrow the subset oracle).
      MinerOptions options;
      options.min_support = smin;
      auto expected = MineClosedCollect(prefix_db, options);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "prefix " << ingested << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

TEST(StreamMinerTest, WindowedMatchesBatchOfWindowAtEveryStep) {
  constexpr std::size_t kPane = 5;
  constexpr std::size_t kWindow = 3;
  const TransactionDatabase db = GenerateRandomDense(42, 10, 0.4, 99);
  StreamMiner miner(Windowed(db.NumItems(), kPane, kWindow));
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    const std::size_t ingested = k + 1;
    const std::size_t current_pane = ingested / kPane;
    EXPECT_EQ(miner.CurrentPaneIndex(), current_pane);
    // The snapshot covers the filling pane plus the kWindow - 1 most
    // recent complete panes.
    const std::size_t first_pane =
        current_pane + 1 >= kWindow ? current_pane + 1 - kWindow : 0;
    TransactionDatabase window_db;
    window_db.SetNumItems(db.NumItems());
    for (std::size_t t = first_pane * kPane; t < ingested; ++t) {
      window_db.AddTransaction(db.transaction(t));
    }
    for (Support smin : {1u, 2u}) {
      auto streamed = miner.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      auto expected = OracleClosedSets(window_db, smin);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
          << "tx " << ingested << " smin " << smin << "\n"
          << DiffResults(expected.value(), streamed.value());
    }
  }
}

TEST(StreamMinerTest, WindowedSnapshotDropsExpiredTransactions) {
  // Two panes, window of one pane: after each rotation the snapshot
  // covers only the filling pane.
  StreamMiner miner(Windowed(4, 2, 1));
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(miner.AddTransaction({0, 1}).ok());  // pane 0 completes
  ASSERT_TRUE(miner.AddTransaction({2, 3}).ok());
  auto sets = miner.QueryCollect(1);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets.value().size(), 1u);
  EXPECT_EQ(sets.value()[0].items, (std::vector<ItemId>{2, 3}));
  EXPECT_EQ(sets.value()[0].support, 1u);
}

TEST(StreamMinerTest, RepeatedQueriesAreStableAndCompact) {
  const TransactionDatabase db = GenerateRandomDense(30, 12, 0.35, 5);
  StreamMiner miner(Windowed(db.NumItems(), 4, 8));
  // Query after every transaction: each query seals the filling block,
  // so panes accumulate several blocks, and neither a query nor the
  // blocks it leaves behind may perturb later snapshots.
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    auto a = miner.QueryCollect(2);
    auto b = miner.QueryCollect(2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
  TransactionDatabase window_db;
  window_db.SetNumItems(db.NumItems());
  for (std::size_t t = 0; t < db.NumTransactions(); ++t) {
    window_db.AddTransaction(db.transaction(t));  // 30 tx < 8 panes * 4
  }
  auto streamed = miner.QueryCollect(1);
  ASSERT_TRUE(streamed.ok());
  MinerOptions options;
  options.min_support = 1;
  auto expected = MineClosedCollect(window_db, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
      << DiffResults(expected.value(), streamed.value());
  EXPECT_EQ(miner.Stats().queries, 2u * db.NumTransactions() + 1);
}

TEST(StreamMinerTest, ConcurrentQueriesDuringIngest) {
  const TransactionDatabase db = GenerateRandomDense(300, 20, 0.3, 17);
  StreamMiner miner(Landmark(db.NumItems()));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries_ok{0};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto sets = miner.QueryCollect(3);
        ASSERT_TRUE(sets.ok());
        queries_ok.fetch_add(1);
      }
    });
  }
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(queries_ok.load(), 0u);
  // The final snapshot is exact despite the query storm.
  auto streamed = miner.QueryCollect(3);
  ASSERT_TRUE(streamed.ok());
  MinerOptions options;
  options.min_support = 3;
  auto expected = MineClosedCollect(db, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameResults(expected.value(), streamed.value()))
      << DiffResults(expected.value(), streamed.value());
}

TEST(StreamMinerTest, CountersAndRegistryExport) {
  StreamMiner miner(Windowed(8, 3, 2));
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(miner.AddTransaction({0, 1, 2}).ok());  // duplicate run
  }
  ASSERT_TRUE(miner.AddTransaction({1, 2, 3}).ok());
  ASSERT_TRUE(miner.AddTransaction({2, 3, 4}).ok());  // completes pane 1
  ASSERT_TRUE(miner.QueryCollect(1).ok());
  const StreamStats stats = miner.Stats();
  EXPECT_EQ(stats.transactions_ingested, 6u);
  EXPECT_EQ(stats.panes_rotated, 2u);
  EXPECT_EQ(stats.panes_expired, 1u);
  EXPECT_EQ(stats.queries, 1u);
  // The retired tree counters stay 0 and stay out of the export.
  EXPECT_EQ(stats.weighted_additions, 0u);
  EXPECT_EQ(stats.snapshot_merges, 0u);
  EXPECT_EQ(stats.segments_compacted, 0u);
  EXPECT_EQ(stats.repository_nodes, 0u);
  // The export: the six live counters in name order, each equal to its
  // field.
  const auto exported = stats.Counters();
  ASSERT_EQ(exported.size(), 6u);
  for (std::size_t i = 1; i < exported.size(); ++i) {
    EXPECT_LT(std::string(exported[i - 1].first), exported[i].first);
  }
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"stream.checkpoint_bytes_read", stats.checkpoint_bytes_read},
      {"stream.checkpoint_bytes_written", stats.checkpoint_bytes_written},
      {"stream.panes_expired", stats.panes_expired},
      {"stream.panes_rotated", stats.panes_rotated},
      {"stream.queries", stats.queries},
      {"stream.transactions_ingested", stats.transactions_ingested},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(exported[i].first, expected[i].first);
    EXPECT_EQ(exported[i].second, expected[i].second) << expected[i].first;
  }
}

TEST(StreamMinerTest, DuplicateMergingNeverChangesSnapshots) {
  // Queries mine with IsTa's duplicate merging on; every snapshot must
  // equal batch IsTa with it off, row by row at weight 1.
  const TransactionDatabase db = GenerateRandomDense(10, 8, 0.5, 3);
  StreamMiner miner(Landmark(db.NumItems()));
  TransactionDatabase prefix_db;
  prefix_db.SetNumItems(db.NumItems());
  IstaOptions unmerged;
  unmerged.min_support = 2;
  unmerged.merge_duplicate_transactions = false;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    for (std::size_t c = 0; c < 1 + k % 4; ++c) {
      ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
      prefix_db.AddTransaction(db.transaction(k));
    }
    auto streamed = miner.QueryCollect(2);
    ASSERT_TRUE(streamed.ok());
    ClosedSetCollector expected;
    ASSERT_TRUE(
        MineClosedIsta(prefix_db, unmerged, expected.AsCallback()).ok());
    expected.SortCanonical();
    EXPECT_EQ(streamed.value(), expected.TakeSets()) << "after row " << k;
  }
}

TEST(StreamingIntegrationTest, MatchesBatchOnMarketBasketCheckpoints) {
  MarketBasketConfig config;
  config.num_items = 40;
  config.num_transactions = 240;
  config.avg_transaction_size = 6.0;
  config.seed = 31;
  const TransactionDatabase db = GenerateMarketBasket(config);

  StreamMiner streaming(Landmark(db.NumItems()));
  TransactionDatabase prefix;
  prefix.SetNumItems(db.NumItems());
  const std::size_t checkpoint_every = 60;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(streaming.AddTransaction(db.transaction(k)).ok());
    prefix.AddTransaction(db.transaction(k));
    if ((k + 1) % checkpoint_every != 0) continue;
    for (Support smin : {2u, 5u, 10u}) {
      auto streamed = streaming.QueryCollect(smin);
      ASSERT_TRUE(streamed.ok());
      MinerOptions options;
      options.min_support = smin;
      options.algorithm = Algorithm::kIsta;
      auto batch = MineClosedCollect(prefix, options);
      ASSERT_TRUE(batch.ok());
      EXPECT_TRUE(SameResults(batch.value(), streamed.value()))
          << "checkpoint " << (k + 1) << " smin " << smin << "\n"
          << DiffResults(batch.value(), streamed.value());
    }
  }
}

TEST(StreamMinerTest, CheckpointsDuringConcurrentIngest) {
  // TSan stress for the snapshot-under-ingest protocol: checkpoints and
  // queries seal the filling block under the miner mutex while a writer
  // keeps ingesting. Every mid-stream checkpoint must be internally
  // consistent (it restores), and the final state must equal batch.
  const TransactionDatabase db = GenerateRandomDense(300, 20, 0.3, 23);
  StreamMiner miner(Windowed(db.NumItems(), 16, 4));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checkpoints_ok{0};
  std::thread snapshotter([&] {
    while (!done.load()) {
      std::stringstream checkpoint;
      ASSERT_TRUE(miner.CheckpointTo(checkpoint).ok());
      auto restored = StreamMiner::RestoreFrom(checkpoint);
      ASSERT_TRUE(restored.ok());
      auto sets = restored.value()->QueryCollect(2);
      ASSERT_TRUE(sets.ok());
      checkpoints_ok.fetch_add(1);
    }
  });
  std::thread reader([&] {
    while (!done.load()) {
      auto sets = miner.QueryCollect(2);
      ASSERT_TRUE(sets.ok());
    }
  });
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    ASSERT_TRUE(miner.AddTransaction(db.transaction(k)).ok());
    if (k == db.NumTransactions() / 2) {
      // Ingest can outrun the snapshotter's first pass entirely; hold
      // the writer here until one checkpoint has completed, so a
      // checkpoint under ingest is certain (the deadline only bounds a
      // snapshotter that failed).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (checkpoints_ok.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  }
  done.store(true);
  snapshotter.join();
  reader.join();
  EXPECT_GT(checkpoints_ok.load(), 0u);
  // Round-trip the final state once more and compare snapshots exactly.
  std::stringstream final_checkpoint;
  ASSERT_TRUE(miner.CheckpointTo(final_checkpoint).ok());
  auto restored = StreamMiner::RestoreFrom(final_checkpoint);
  ASSERT_TRUE(restored.ok());
  auto direct = miner.QueryCollect(1);
  auto roundtripped = restored.value()->QueryCollect(1);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(roundtripped.ok());
  EXPECT_TRUE(SameResults(direct.value(), roundtripped.value()))
      << DiffResults(direct.value(), roundtripped.value());
}

// A lock-contract helper in the style the miner uses internally
// (SealLocked etc.): FIM_REQUIRES makes "caller holds the
// mutex" machine-checked at every call site under FIM_THREAD_SAFETY,
// and the lock-rank checker enforces it dynamically in debug builds.
std::uint64_t IncrementHolding(Mutex& mutex, std::uint64_t& value)
    FIM_REQUIRES(mutex) {
  return ++value;
}

TEST(StreamMinerTest, RequiresAnnotatedHelperSeesConsistentState) {
  Mutex mutex(LockRank::kLeaf, "requires-helper");
  std::uint64_t value = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        const MutexLock lock(mutex);
        IncrementHolding(mutex, value);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(mutex);
  EXPECT_EQ(IncrementHolding(mutex, value), 20001u);
}

TEST(StreamMinerTest, RejectsBadInput) {
  StreamMiner miner(Landmark(5));
  EXPECT_FALSE(miner.AddTransaction({}).ok());
  EXPECT_EQ(miner.AddTransaction({7}).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(miner.AddTransaction({4, 1, 1}).ok());  // normalized
  EXPECT_EQ(miner.NumTransactions(), 1u);
  EXPECT_FALSE(miner.Query(0, [](auto, auto) {}).ok());
  auto empty = StreamMiner(Landmark(3)).QueryCollect(1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

}  // namespace
}  // namespace fim

// Micro benchmarks of the IsTa prefix tree and the Carpenter repository
// (google-benchmark): transaction insertion + intersection throughput,
// repository insert/lookup, and the report pass.

#include <benchmark/benchmark.h>

#include "carpenter/repository.h"
#include "data/generators.h"
#include "ista/prefix_tree.h"

namespace {

using namespace fim;

TransactionDatabase MakeDb(std::size_t num_transactions,
                           std::size_t num_items, double density,
                           uint64_t seed) {
  return GenerateRandomDense(num_transactions, num_items, density, seed);
}

void BM_IstaAddTransaction(benchmark::State& state) {
  const auto db = MakeDb(static_cast<std::size_t>(state.range(0)), 200, 0.1,
                         7);
  for (auto _ : state) {
    IstaPrefixTree tree(db.NumItems());
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    tree.AddTransaction(db.transaction(k));
  }
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.NumTransactions()));
}
BENCHMARK(BM_IstaAddTransaction)->Arg(64)->Arg(256)->Arg(1024);

void BM_IstaReport(benchmark::State& state) {
  const auto db = MakeDb(256, 200, 0.1, 7);
  IstaPrefixTree tree(db.NumItems());
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    tree.AddTransaction(db.transaction(k));
  }
  for (auto _ : state) {
    std::size_t count = 0;
    tree.Report(static_cast<Support>(state.range(0)),
                [&count](std::span<const ItemId>, Support) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IstaReport)->Arg(2)->Arg(8)->Arg(32);

void BM_IstaPrune(benchmark::State& state) {
  const auto db = MakeDb(256, 200, 0.1, 7);
  const auto remaining = std::vector<Support>(db.NumItems(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    IstaPrefixTree tree(db.NumItems());
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    tree.AddTransaction(db.transaction(k));
  }
    state.ResumeTiming();
    tree.Prune(static_cast<Support>(state.range(0)), remaining);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
}
BENCHMARK(BM_IstaPrune)->Arg(2)->Arg(16);

void BM_RepositoryInsert(benchmark::State& state) {
  const auto db = MakeDb(static_cast<std::size_t>(state.range(0)), 300, 0.05,
                         11);
  for (auto _ : state) {
    ClosedSetRepository repo(db.NumItems());
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      benchmark::DoNotOptimize(repo.InsertIfAbsent(db.transaction(k)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.NumTransactions()));
}
BENCHMARK(BM_RepositoryInsert)->Arg(256)->Arg(2048);

void BM_RepositoryContains(benchmark::State& state) {
  const auto db = MakeDb(1024, 300, 0.05, 11);
  ClosedSetRepository repo(db.NumItems());
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    repo.InsertIfAbsent(db.transaction(k));
  }
  for (auto _ : state) {
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      benchmark::DoNotOptimize(repo.Contains(db.transaction(k)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RepositoryContains);

}  // namespace

BENCHMARK_MAIN();

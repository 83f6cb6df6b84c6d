// Micro benchmarks of the shared kernels (google-benchmark): sorted-set
// intersection, subset test, Carpenter matrix construction, FP-tree
// insertion.

#include <benchmark/benchmark.h>

#include "carpenter/carpenter.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/itemset.h"
#include "enumeration/fptree.h"

namespace {

using namespace fim;

std::vector<ItemId> RandomSorted(std::size_t size, std::size_t universe,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<ItemId> v;
  v.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(static_cast<ItemId>(rng.Uniform(universe)));
  }
  NormalizeItems(&v);
  return v;
}

void BM_IntersectSorted(benchmark::State& state) {
  const auto a = RandomSorted(static_cast<std::size_t>(state.range(0)),
                              100000, 3);
  const auto b = RandomSorted(static_cast<std::size_t>(state.range(0)),
                              100000, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_IntersectSorted)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IsSubsetSorted(benchmark::State& state) {
  const auto b = RandomSorted(static_cast<std::size_t>(state.range(0)),
                              100000, 5);
  auto a = b;
  a.resize(a.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsSubsetSorted(a, b));
  }
}
BENCHMARK(BM_IsSubsetSorted)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BuildCarpenterMatrix(benchmark::State& state) {
  const auto db = GenerateRandomDense(
      64, static_cast<std::size_t>(state.range(0)), 0.1, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildCarpenterMatrix(db));
  }
}
BENCHMARK(BM_BuildCarpenterMatrix)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FpTreeInsert(benchmark::State& state) {
  const auto db = GenerateRandomDense(
      static_cast<std::size_t>(state.range(0)), 200, 0.1, 13);
  for (auto _ : state) {
    FpTree tree(db.NumItems());
    for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
      tree.Insert(db.transaction(k), 1);
    }
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.NumTransactions()));
}
BENCHMARK(BM_FpTreeInsert)->Arg(256)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();

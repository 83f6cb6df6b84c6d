// Property tests for the runtime-dispatched intersection kernels
// (src/kernels/): every available tier must agree element-for-element
// with std::set_intersection on sorted duplicate-free uint32_t inputs —
// the contract that keeps the miners' closed-set output bit-identical
// under every FIM_KERNEL setting. Also covers the galloping kernel, the
// adaptive front door, DifferenceInto, the TidSet dense/sparse
// conversion boundary, and the selection API.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/intersect.h"
#include "kernels/tidset.h"

namespace fim::kernels {
namespace {

using U32s = std::vector<std::uint32_t>;

U32s Reference(const U32s& a, const U32s& b) {
  U32s out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Calls a raw kernel's intersect with the contract-required slack
// (capacity >= min(na, nb) + kIntersectPad) and trims to the result.
U32s RunIntersect(const IntersectKernel& kernel, const U32s& a, const U32s& b) {
  U32s out(std::min(a.size(), b.size()) + kIntersectPad, 0xDEADBEEF);
  const std::size_t n =
      kernel.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
  out.resize(n);
  return out;
}

U32s SortedUnique(std::mt19937& rng, std::size_t count, std::uint32_t max) {
  std::set<std::uint32_t> values;
  std::uniform_int_distribution<std::uint32_t> dist(0, max);
  while (values.size() < count) values.insert(dist(rng));
  return U32s(values.begin(), values.end());
}

// The canonical shape catalog every kernel must handle: empty operands,
// disjoint ranges, identical lists, strict subsets, strongly skewed
// lengths, dense (consecutive) runs, and block-boundary sizes around the
// 4- and 8-lane SIMD widths.
std::vector<std::pair<U32s, U32s>> ShapeCatalog() {
  std::vector<std::pair<U32s, U32s>> shapes;
  shapes.push_back({{}, {}});
  shapes.push_back({{}, {1, 2, 3}});
  shapes.push_back({{1, 2, 3}, {}});
  shapes.push_back({{1, 3, 5, 7}, {2, 4, 6, 8}});          // disjoint interleaved
  shapes.push_back({{1, 2, 3, 4}, {10, 11, 12, 13}});      // disjoint ranges
  shapes.push_back({{5, 6, 7, 8}, {5, 6, 7, 8}});          // equal
  shapes.push_back({{2, 4, 6}, {1, 2, 3, 4, 5, 6, 7}});    // subset
  shapes.push_back({{42}, {42}});
  shapes.push_back({{42}, {41}});
  // Block-boundary sizes: 1..17 elements against 1..17 elements with a
  // 50% overlap pattern exercises every SIMD tail path.
  for (std::size_t na = 1; na <= 17; ++na) {
    for (std::size_t nb : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                           std::size_t{15}, std::size_t{17}}) {
      U32s a, b;
      for (std::size_t i = 0; i < na; ++i) a.push_back(2 * i);
      for (std::size_t i = 0; i < nb; ++i) b.push_back(3 * i);
      shapes.push_back({a, b});
    }
  }
  // The shape that motivated kIntersectPad: all matches come from the
  // still-current block of the shorter side, so the match count reaches
  // min(na, nb) while the SIMD loop still has a full-vector store ahead.
  {
    U32s b = {5, 6, 7, 8, 100, 101, 102, 103};
    U32s a;
    for (std::uint32_t v = 1; v <= 8; ++v) a.push_back(v);
    for (std::uint32_t v = 100; v <= 103; ++v) a.push_back(v);
    shapes.push_back({a, b});
    shapes.push_back({b, a});
  }
  // Dense consecutive runs with a shifted overlap.
  {
    U32s a, b;
    for (std::uint32_t v = 0; v < 200; ++v) a.push_back(v);
    for (std::uint32_t v = 100; v < 300; ++v) b.push_back(v);
    shapes.push_back({a, b});
  }
  // Strongly skewed lengths (also exercises the gallop cutover through
  // the adaptive front door).
  {
    std::mt19937 rng(7);
    U32s longer = SortedUnique(rng, 4096, 1u << 20);
    U32s shorter;
    for (std::size_t i = 0; i < longer.size(); i += 97) {
      shorter.push_back(longer[i]);
    }
    shorter.push_back((1u << 20) + 1);  // one element past the long list
    std::sort(shorter.begin(), shorter.end());
    shapes.push_back({shorter, longer});
    shapes.push_back({longer, shorter});
  }
  return shapes;
}

TEST(KernelsTest, EveryKernelMatchesSetIntersectionOnShapeCatalog) {
  const auto kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  const auto shapes = ShapeCatalog();
  for (const IntersectKernel* kernel : kernels) {
    for (const auto& [a, b] : shapes) {
      EXPECT_EQ(RunIntersect(*kernel, a, b), Reference(a, b))
          << "kernel " << kernel->name << ", na=" << a.size()
          << ", nb=" << b.size();
    }
  }
}

TEST(KernelsTest, EveryKernelMatchesSetIntersectionOnRandomInputs) {
  std::mt19937 rng(20260808);
  const auto kernels = AvailableKernels();
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<std::size_t> len(0, 400);
    // Mix universes so expected overlap ranges from dense to rare.
    const std::uint32_t max = (round % 3 == 0)   ? 255
                              : (round % 3 == 1) ? 4095
                                                 : (1u << 24);
    const std::size_t na = len(rng);
    const std::size_t nb = len(rng);
    const U32s a = SortedUnique(rng, std::min<std::size_t>(na, max / 2), max);
    const U32s b = SortedUnique(rng, std::min<std::size_t>(nb, max / 2), max);
    const U32s want = Reference(a, b);
    for (const IntersectKernel* kernel : kernels) {
      EXPECT_EQ(RunIntersect(*kernel, a, b), want)
          << "kernel " << kernel->name << ", round " << round;
    }
  }
}

TEST(KernelsTest, GallopMatchesSetIntersection) {
  std::mt19937 rng(99);
  for (int round = 0; round < 50; ++round) {
    const U32s b = SortedUnique(rng, 2000, 1u << 18);
    std::uniform_int_distribution<std::size_t> len(0, 60);
    U32s a = SortedUnique(rng, len(rng), 1u << 18);
    // Seed some guaranteed hits.
    for (std::size_t i = 0; i < b.size(); i += 211) a.push_back(b[i]);
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    U32s out(a.size());
    const std::size_t n =
        GallopIntersect(a.data(), a.size(), b.data(), b.size(), out.data());
    out.resize(n);
    EXPECT_EQ(out, Reference(a, b)) << "round " << round;
  }
}

TEST(KernelsTest, AdaptiveIntersectMatchesOnSkewAndBalance) {
  std::mt19937 rng(3);
  for (const std::size_t ratio : {std::size_t{1}, std::size_t{4},
                                  kGallopRatio - 1, kGallopRatio,
                                  4 * kGallopRatio}) {
    const U32s longer = SortedUnique(rng, 1024, 1u << 16);
    const U32s shorter = SortedUnique(rng, 1024 / ratio, 1u << 16);
    U32s out(std::min(longer.size(), shorter.size()) + kIntersectPad);
    const std::size_t n = Intersect(shorter.data(), shorter.size(),
                                    longer.data(), longer.size(), out.data());
    out.resize(n);
    EXPECT_EQ(out, Reference(shorter, longer)) << "ratio " << ratio;
  }
}

TEST(KernelsTest, IntersectIntoReusesBufferAndTrims) {
  U32s out{9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  IntersectInto(U32s{1, 2, 3, 4}, U32s{2, 4, 6}, &out);
  EXPECT_EQ(out, (U32s{2, 4}));
  IntersectInto(U32s{}, U32s{2, 4, 6}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(KernelsTest, DifferenceIntoMatchesSetDifference) {
  std::mt19937 rng(11);
  for (int round = 0; round < 50; ++round) {
    std::uniform_int_distribution<std::size_t> len(0, 300);
    const U32s a = SortedUnique(rng, len(rng), 2048);
    const U32s b = SortedUnique(rng, len(rng), 2048);
    U32s want;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
    U32s got;
    DifferenceInto(a, b, &got);
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(KernelsTest, BitsetAndMatchesScalarAndCountsBits) {
  std::mt19937_64 rng(5);
  for (const IntersectKernel* kernel : AvailableKernels()) {
    for (const std::size_t words :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
          std::size_t{7}, std::size_t{64}, std::size_t{65}}) {
      std::vector<std::uint64_t> a(words), b(words), out(words, ~0ull);
      for (auto& w : a) w = rng();
      for (auto& w : b) w = rng();
      std::size_t want_count = 0;
      std::vector<std::uint64_t> want(words);
      for (std::size_t w = 0; w < words; ++w) {
        want[w] = a[w] & b[w];
        want_count += static_cast<std::size_t>(std::popcount(want[w]));
      }
      const std::size_t count =
          kernel->bitset_and(a.data(), b.data(), words, out.data());
      EXPECT_EQ(count, want_count) << kernel->name << " words=" << words;
      EXPECT_EQ(out, want) << kernel->name << " words=" << words;
      // Aliasing with an input is allowed.
      const std::size_t aliased =
          kernel->bitset_and(a.data(), b.data(), words, a.data());
      EXPECT_EQ(aliased, want_count);
      EXPECT_EQ(a, want);
    }
  }
}

TEST(KernelsTest, FilterNonzeroMatchesScalarAndAllowsInPlace) {
  std::mt19937 rng(17);
  std::vector<std::uint32_t> row(1024);
  std::uniform_int_distribution<std::uint32_t> coin(0, 3);
  for (auto& cell : row) cell = coin(rng) == 0 ? 0 : coin(rng);
  for (const IntersectKernel* kernel : AvailableKernels()) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{200}}) {
      const U32s items = SortedUnique(rng, n, 1023);
      U32s want;
      for (const std::uint32_t item : items) {
        if (row[item] != 0) want.push_back(item);
      }
      U32s out(items.size(), 0xDEADBEEF);
      out.resize(kernel->filter_nonzero(items.data(), items.size(), row.data(),
                                        out.data()));
      EXPECT_EQ(out, want) << kernel->name << " n=" << n;
      // In-place: out == items is part of the contract.
      U32s in_place = items;
      in_place.resize(kernel->filter_nonzero(in_place.data(), in_place.size(),
                                             row.data(), in_place.data()));
      EXPECT_EQ(in_place, want) << kernel->name << " n=" << n;
    }
  }
}

// --- TidSet dense/sparse boundary -------------------------------------

std::vector<Tid> TidsOf(const TidSet& set) {
  std::vector<Tid> scratch;
  const auto span = set.Tids(&scratch);
  return std::vector<Tid>(span.begin(), span.end());
}

TEST(TidSetTest, RepresentationIsTransparentAcrossTheCutover) {
  const Tid universe = 1024;
  std::mt19937 rng(23);
  // Sweep counts across the dense cutover (universe / kDensityCutover =
  // 32) including the exact boundary and both neighbours.
  const std::size_t cutover = universe / TidSet::kDensityCutover;
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, cutover - 1, cutover, cutover + 1,
        std::size_t{500}, static_cast<std::size_t>(universe)}) {
    std::vector<Tid> tids = SortedUnique(rng, count, universe - 1);
    TidSet set = TidSet::FromSorted(tids, universe);
    EXPECT_EQ(set.Count(), tids.size());
    EXPECT_EQ(TidsOf(set), tids) << "count " << count;
  }
}

TEST(TidSetTest, IntersectAgreesWithReferenceAcrossAllRepresentationPairs) {
  const Tid universe = 2048;
  std::mt19937 rng(29);
  // Sizes chosen so every pairing occurs: sparse∩sparse, sparse∩dense,
  // dense∩dense — plus results that land on either side of the cutover.
  const std::vector<std::size_t> sizes = {0,  3,   40,  63,  64,
                                          65, 200, 1024, 2000};
  for (const std::size_t sa : sizes) {
    for (const std::size_t sb : sizes) {
      const std::vector<Tid> ta = SortedUnique(rng, sa, universe - 1);
      const std::vector<Tid> tb = SortedUnique(rng, sb, universe - 1);
      const TidSet a = TidSet::FromSorted(ta, universe);
      const TidSet b = TidSet::FromSorted(tb, universe);
      TidSet result;
      TidSet::Intersect(a, b, &result);
      const std::vector<Tid> want = Reference(ta, tb);
      EXPECT_EQ(result.Count(), want.size())
          << "sa=" << sa << " sb=" << sb << " (dense " << a.dense() << "/"
          << b.dense() << ")";
      EXPECT_EQ(TidsOf(result), want)
          << "sa=" << sa << " sb=" << sb << " (dense " << a.dense() << "/"
          << b.dense() << ")";
    }
  }
}

TEST(TidSetTest, ContainsAllAgreesWithReferenceOnBothRepresentations) {
  const Tid universe = 2048;
  std::mt19937 rng(31);
  for (const std::size_t size : {std::size_t{1}, std::size_t{40},
                                 std::size_t{64}, std::size_t{1500}}) {
    const std::vector<Tid> column = SortedUnique(rng, size, universe - 1);
    const TidSet set = TidSet::FromSorted(column, universe);
    // Subsets of the column (contained), and subsets with one foreign
    // tid inserted at each end and in the middle (not contained).
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Tid> probe;
      for (Tid t : column) {
        if (rng() % 3 == 0) probe.push_back(t);
      }
      std::size_t probed = 0;
      EXPECT_TRUE(set.ContainsAll(probe, &probed)) << "size " << size;
      EXPECT_EQ(probed, probe.size());
      const Tid foreign = static_cast<Tid>(rng() % universe);
      if (std::binary_search(column.begin(), column.end(), foreign)) continue;
      probe.insert(std::lower_bound(probe.begin(), probe.end(), foreign),
                   foreign);
      EXPECT_FALSE(set.ContainsAll(probe, &probed))
          << "size " << size << " dense " << set.dense() << " foreign "
          << foreign;
      EXPECT_LE(probed, probe.size());
    }
  }
  std::size_t probed = 1;
  const TidSet small = TidSet::FromSorted({3, 9}, universe);
  EXPECT_FALSE(small.ContainsAll(std::vector<Tid>{3, 5, 9}, &probed));
  EXPECT_EQ(probed, 0u) << "more tids than the set holds: no probe needed";
  EXPECT_TRUE(small.ContainsAll({}, &probed));
}

TEST(TidSetTest, ConversionBoundaryFuzz) {
  // Fuzz seeds pinned around the density boundary: repeated intersections
  // must stay exact while results convert dense->sparse and operands mix
  // representations.
  for (const std::uint32_t seed : {1u, 2u, 3u, 5u, 8u, 13u}) {
    std::mt19937 rng(seed);
    const Tid universe = 512 + seed * 64;
    const std::size_t cutover = universe / TidSet::kDensityCutover;
    std::uniform_int_distribution<std::size_t> jitter(0, 2 * cutover);
    std::vector<Tid> current = SortedUnique(
        rng, universe / 2, universe - 1);  // start dense
    TidSet acc = TidSet::FromSorted(current, universe);
    for (int step = 0; step < 12; ++step) {
      const std::vector<Tid> other_tids =
          SortedUnique(rng, cutover + jitter(rng), universe - 1);
      const TidSet other = TidSet::FromSorted(other_tids, universe);
      TidSet next;
      TidSet::Intersect(acc, other, &next);
      current = Reference(current, other_tids);
      ASSERT_EQ(TidsOf(next), current) << "seed " << seed << " step " << step;
      acc = next;
      if (current.empty()) break;
    }
  }
}

// --- selection API ----------------------------------------------------

TEST(KernelsTest, AvailableKernelsStartsWithScalar) {
  const auto kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front()->id, KernelId::kScalar);
  EXPECT_STREQ(kernels.front()->name, "scalar");
  for (const IntersectKernel* kernel : kernels) {
    EXPECT_TRUE(CpuSupports(kernel->id)) << kernel->name;
  }
}

TEST(KernelsTest, ForceKernelSwitchesAndRejectsUnknownNames) {
  const IntersectKernel& original = Active();
  EXPECT_FALSE(ForceKernel("not-a-kernel"));
  EXPECT_STREQ(Active().name, original.name);  // unchanged on failure
  for (const IntersectKernel* kernel : AvailableKernels()) {
    ASSERT_TRUE(ForceKernel(kernel->name));
    EXPECT_EQ(Active().id, kernel->id);
  }
  ASSERT_TRUE(ForceKernel(original.name));  // restore for other tests
}

TEST(KernelsTest, CountersAdvanceWithWork) {
  const CounterSnapshot before = Counters();
  const U32s a{1, 2, 3, 4, 5};
  const U32s b{2, 4, 6};
  U32s out;
  IntersectInto(a, b, &out);
  const CounterSnapshot after = Counters();
  EXPECT_GE(after.calls, before.calls + 1);
  EXPECT_GE(after.elements_in, before.elements_in + a.size() + b.size());
  EXPECT_GE(after.elements_out, before.elements_out + 2);
}

}  // namespace
}  // namespace fim::kernels

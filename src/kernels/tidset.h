#ifndef FIM_KERNELS_TIDSET_H_
#define FIM_KERNELS_TIDSET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/itemset.h"

namespace fim::kernels {

/// A transaction-id set over a fixed universe [0, universe) that picks
/// its own representation: a sorted sparse `std::vector<Tid>` below the
/// density cutover, a packed bit vector above it. Intersections run
/// through the dispatched kernels (sorted-list merge/gallop for sparse
/// operands, word-at-a-time AND for dense ones) and the result converts
/// itself back below the cutover, so long Eclat-style intersection
/// chains stay in the cheapest representation automatically.
///
/// Representation is an implementation detail: Tids(), Count() and the
/// intersection results are identical whichever side of the cutover the
/// operands are on (tests/kernels_test.cc fuzzes the boundary).
class TidSet {
 public:
  /// Dense when count * kDensityCutover >= universe (density >= 1/32):
  /// the bit vector costs universe/8 bytes against 4*count sparse bytes,
  /// so memory breaks even at 1/32 and the word-AND kernel wins well
  /// before that on time.
  static constexpr std::size_t kDensityCutover = 32;

  TidSet() = default;

  /// Takes a sorted duplicate-free tid list over [0, universe).
  static TidSet FromSorted(std::vector<Tid> tids, Tid universe);

  /// Number of tids in the set (the support of the column).
  Support Count() const { return count_; }

  Tid universe() const { return universe_; }
  bool dense() const { return dense_; }

  /// The tids, ascending. Sparse sets return their storage; dense sets
  /// materialize into `scratch` (resized as needed).
  std::span<const Tid> Tids(std::vector<Tid>* scratch) const;

  /// True iff every tid of the sorted duplicate-free list `tids` is in
  /// this set: the intersection `tids ∩ this` abandoned at its first
  /// miss. `*probed` receives the number of tids examined (0 when the
  /// count alone rules containment out). Not counted by the kernel
  /// counters itself; callers fold `*probed` into their own CountCall.
  bool ContainsAll(std::span<const Tid> tids, std::size_t* probed) const;

  /// result = a ∩ b, reusing `result`'s buffers (no allocation once
  /// warm). `result` must not alias `a` or `b`. Both operands must share
  /// the same universe.
  static void Intersect(const TidSet& a, const TidSet& b, TidSet* result);

  /// Exact heap bytes behind this set (capacity of whichever buffers
  /// exist — a set that crossed the density cutover may hold both).
  /// Summed per column by the miners feeding the memory breakdown.
  std::size_t ApproxMemoryUsage() const {
    return sparse_.capacity() * sizeof(Tid) +
           words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static bool ShouldBeDense(std::size_t count, Tid universe) {
    return static_cast<std::uint64_t>(count) * kDensityCutover >=
           static_cast<std::uint64_t>(universe);
  }
  static std::size_t WordsFor(Tid universe) {
    return (static_cast<std::size_t>(universe) + 63) / 64;
  }

  void ConvertToDense();
  void ConvertToSparseIfBelowCutover();

  Tid universe_ = 0;
  Support count_ = 0;
  bool dense_ = false;
  std::vector<Tid> sparse_;           // sorted, valid when !dense_
  std::vector<std::uint64_t> words_;  // valid when dense_
};

}  // namespace fim::kernels

#endif  // FIM_KERNELS_TIDSET_H_

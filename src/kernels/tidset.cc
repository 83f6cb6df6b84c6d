#include "kernels/tidset.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "kernels/intersect.h"

namespace fim::kernels {

TidSet TidSet::FromSorted(std::vector<Tid> tids, Tid universe) {
  FIM_DCHECK(std::is_sorted(tids.begin(), tids.end()) &&
             std::adjacent_find(tids.begin(), tids.end()) == tids.end())
      << "TidSet input must be sorted ascending and duplicate-free";
  FIM_DCHECK(tids.empty() || tids.back() < universe)
      << "tid " << tids.back() << " outside universe " << universe;
  TidSet set;
  set.universe_ = universe;
  set.count_ = static_cast<Support>(tids.size());
  set.sparse_ = std::move(tids);
  if (ShouldBeDense(set.sparse_.size(), universe)) {
    set.ConvertToDense();
    // A fresh set has no intersection buffers to keep warm.
    std::vector<Tid>().swap(set.sparse_);
  }
  return set;
}

bool TidSet::ContainsAll(std::span<const Tid> tids,
                         std::size_t* probed) const {
  *probed = 0;
  if (tids.size() > count_) return false;
  if (dense_) {
    for (Tid t : tids) {
      ++*probed;
      if (((words_[t >> 6] >> (t & 63)) & 1) == 0) return false;
    }
    return true;
  }
  // Both sides ascending: each probe searches only past the previous hit.
  auto from = sparse_.begin();
  for (Tid t : tids) {
    ++*probed;
    from = std::lower_bound(from, sparse_.end(), t);
    if (from == sparse_.end() || *from != t) return false;
    ++from;
  }
  return true;
}

std::span<const Tid> TidSet::Tids(std::vector<Tid>* scratch) const {
  if (!dense_) return sparse_;
  scratch->clear();
  scratch->reserve(count_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      scratch->push_back(static_cast<Tid>(w * 64 + bit));
      word &= word - 1;
    }
  }
  return *scratch;
}

void TidSet::ConvertToDense() {
  words_.assign(WordsFor(universe_), 0);
  for (Tid t : sparse_) {
    words_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }
  sparse_.clear();
  dense_ = true;
}

void TidSet::ConvertToSparseIfBelowCutover() {
  if (!dense_ || ShouldBeDense(count_, universe_)) return;
  sparse_.clear();
  sparse_.reserve(count_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      sparse_.push_back(static_cast<Tid>(w * 64 + bit));
      word &= word - 1;
    }
  }
  words_.clear();
  dense_ = false;
}

void TidSet::Intersect(const TidSet& a, const TidSet& b, TidSet* result) {
  FIM_DCHECK(a.universe_ == b.universe_)
      << "TidSet universes differ: " << a.universe_ << " vs " << b.universe_;
  FIM_DCHECK(result != &a && result != &b)
      << "TidSet::Intersect result must not alias an operand";
  result->universe_ = a.universe_;
  if (a.dense_ && b.dense_) {
    // Word-at-a-time AND through the dispatched kernel; the result may
    // fall below the cutover and converts itself back to sparse.
    result->words_.resize(a.words_.size());
    result->count_ = static_cast<Support>(Active().bitset_and(
        a.words_.data(), b.words_.data(), a.words_.size(),
        result->words_.data()));
    result->dense_ = true;
    result->sparse_.clear();
    result->ConvertToSparseIfBelowCutover();
    return;
  }
  if (a.dense_ != b.dense_) {
    // Probe the dense side with the sparse side's tids. The result is at
    // most the sparse operand, which is below the cutover by
    // construction, so it stays sparse.
    const TidSet& sparse = a.dense_ ? b : a;
    const TidSet& dense = a.dense_ ? a : b;
    result->sparse_.resize(sparse.sparse_.size());
    std::size_t k = 0;
    for (Tid t : sparse.sparse_) {
      if ((dense.words_[t >> 6] >> (t & 63)) & 1) {
        result->sparse_[k++] = t;
      }
    }
    CountCall(sparse.sparse_.size(), k);
    result->sparse_.resize(k);
    result->count_ = static_cast<Support>(k);
    result->dense_ = false;
    result->words_.clear();
    return;
  }
  // Both sparse: adaptive merge/gallop kernel; the result cannot exceed
  // the smaller operand, so it stays below the cutover.
  IntersectInto(a.sparse_, b.sparse_, &result->sparse_);
  result->count_ = static_cast<Support>(result->sparse_.size());
  result->dense_ = false;
  result->words_.clear();
}

}  // namespace fim::kernels

#ifndef FIM_ISTA_PREFIX_TREE_H_
#define FIM_ISTA_PREFIX_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/itemset.h"
#include "obs/memory.h"

namespace fim {

/// The prefix-tree repository of closed item sets at the heart of IsTa
/// (paper §3.3). Each node represents the item set formed by the items on
/// its root path; sibling lists are ordered by descending item code and
/// children carry lower codes than their parent, so every set is stored
/// along exactly one path. `AddTransaction` implements the combined
/// "insert transaction + merge all intersections" recursion of Figure 2,
/// using a per-node step stamp to keep supports correct when several
/// stored sets intersect the new transaction to the same result.
///
/// Item codes must be < num_items; for the performance characteristics of
/// the paper, assign codes ascending by frequency (see recode.h) before
/// feeding transactions.
class IstaPrefixTree {
 public:
  explicit IstaPrefixTree(std::size_t num_items);

  // The tree owns bulk node storage; moving is fine, copying is not
  // meaningful for a mining-in-progress structure.
  IstaPrefixTree(const IstaPrefixTree&) = delete;
  IstaPrefixTree& operator=(const IstaPrefixTree&) = delete;
  IstaPrefixTree(IstaPrefixTree&&) = default;
  IstaPrefixTree& operator=(IstaPrefixTree&&) = default;

  /// Processes one transaction of multiplicity `weight` (>= 1): adds it
  /// to the repository and creates or updates every intersection with a
  /// stored set, adding `weight` instead of +1 wherever Figure 2 counts
  /// the transaction (the step-stamp discount is adjusted accordingly).
  /// Equivalent to `weight` consecutive unit additions, in one pass.
  /// `items` must be sorted ascending and duplicate-free, non-empty, all
  /// < num_items.
  void AddTransaction(std::span<const ItemId> items, Support weight = 1);

  /// Reports every stored set with support >= min_support whose support
  /// exceeds the support of all its direct children (the closedness check
  /// of Figure 4). Items are passed to the callback in ascending order.
  void Report(Support min_support, const ClosedSetCallback& callback) const;

  /// Item-elimination pruning (paper §3.2): rebuilds the tree, removing
  /// item i from every stored set whose node support s satisfies
  /// s + remaining[i] < min_support, where remaining[i] is the number of
  /// occurrences of i in the not-yet-processed transactions. Reduced sets
  /// are merged with max support. Never changes the reported frequent
  /// closed sets.
  void Prune(Support min_support, std::span<const Support> remaining);

  /// Number of live nodes (excluding the pseudo-root).
  std::size_t NodeCount() const { return node_count_; }

  /// High-water mark of NodeCount() over the tree's whole history,
  /// including the sizes each Prune() shrank it from.
  std::size_t PeakNodeCount() const { return peak_node_count_; }

  /// Number of Prune() rebuilds performed.
  std::size_t PruneCount() const { return prune_count_; }

  /// Repository nodes visited by the intersection walk (Figure 2's
  /// Isect) — the paper's measure of intersection work.
  std::uint64_t IsectSteps() const { return isect_steps_; }

  /// Number of transactions processed so far (a weighted addition
  /// counts as one step).
  std::size_t StepCount() const { return step_; }

  /// Total transaction weight processed so far (each AddTransaction adds
  /// its weight).
  uint64_t TotalWeight() const { return total_weight_; }

  /// Exact heap footprint of the repository (capacity bytes of the SoA
  /// arenas), as a breakdown named "prefix-tree": the node columns and
  /// the link arena each split into "live" (slots of reachable nodes)
  /// and "garbage" (allocated-but-dead slots plus capacity slack —
  /// vectors never shrink, so this is the pruning/growth overhead),
  /// plus the transaction-flag and Isect-stack scratch. The total
  /// matches what the FIM_MEM_PROFILE allocation tracker counts for the
  /// tree's domain. O(1).
  obs::MemoryComponent ApproxMemoryUsage() const;

  /// Exhaustively checks the structural invariants of the repository
  /// (paper §3.3, Figure 2) and returns OK, or an Internal status naming
  /// the first violated invariant:
  ///   - every sibling list is sorted by strictly descending item code;
  ///   - every child carries a strictly lower item code than its parent;
  ///   - item codes are valid (< num_items; kInvalidItem only at the root);
  ///   - no node's step stamp exceeds the global step counter;
  ///   - support never increases from parent to child (a child path is a
  ///     superset item set, so it is contained in no more transactions);
  ///   - no node's support exceeds the total transaction weight processed
  ///     (weighted additions included);
  ///   - the accumulated per-node transaction weights sum to at most the
  ///     total transaction weight (pruning may shed weight, never gain);
  ///   - every allocated node is reachable exactly once (no cycles, no
  ///     leaks) and `NodeCount()` matches;
  ///   - the transaction flag array is fully cleared (quiescent state).
  /// O(nodes). Debug builds run this automatically at mutation points via
  /// FIM_DCHECK; tests and fim-verify call it on demand.
  Status ValidateInvariants() const;

 private:
  friend struct IstaPrefixTreeTestPeer;  // corruption hooks for check_test

  // Node storage is a structure of arrays: one parallel vector per field,
  // indexed by node id, plus a single link arena holding both links of a
  // node in adjacent slots (slot 2n = children of node n, slot 2n+1 = its
  // sibling). The intersection walks touch only item codes, supports and
  // links, so splitting the fields keeps the cache lines they stream over
  // free of the cold step/trans fields, and the unified link arena lets
  // an insertion cursor be a stable uint32_t slot index instead of a
  // pointer that vector growth would invalidate.

  static constexpr uint32_t kNil = static_cast<uint32_t>(-1);
  static constexpr uint32_t kRoot = 0;

  /// Link-arena slots of node n. links_[ChildSlot(n)] heads n's child
  /// list; links_[SibSlot(n)] is n's next sibling.
  static uint32_t ChildSlot(uint32_t n) { return 2 * n; }
  static uint32_t SibSlot(uint32_t n) { return 2 * n + 1; }

  /// A view of one node's fields across the parallel arrays, for the
  /// cold paths (validation, the test peer) that want the
  /// old whole-node access. The references follow vector reallocation
  /// rules: do not hold one across NewNode.
  struct NodeRef {
    uint32_t& step;      // last update step (0 = never)
    ItemId& item;        // item of this node (kInvalidItem for the root)
    Support& supp;       // support of the set on the root path
    Support& trans;      // accumulated weight of transactions equal to the
                         // set on the root path (0 for pure intersections)
    uint32_t& sibling;   // next node in the sibling list (descending items)
    uint32_t& children;  // head of the child list
  };
  struct ConstNodeRef {
    const uint32_t& step;
    const ItemId& item;
    const Support& supp;
    const Support& trans;
    const uint32_t& sibling;
    const uint32_t& children;
  };

  NodeRef At(uint32_t index) {
    return NodeRef{node_step_[index],          node_item_[index],
                   node_supp_[index],          node_trans_[index],
                   links_[SibSlot(index)],     links_[ChildSlot(index)]};
  }
  ConstNodeRef At(uint32_t index) const {
    return ConstNodeRef{node_step_[index],      node_item_[index],
                        node_supp_[index],      node_trans_[index],
                        links_[SibSlot(index)], links_[ChildSlot(index)]};
  }

  /// Allocates a node. Node ids and link-arena slot indices are stable
  /// across allocation (they are indices, not pointers); references and
  /// NodeRefs are not.
  uint32_t NewNode(ItemId item, uint32_t step, Support supp);

  /// Inserts the transaction as a path (descending item codes), creating
  /// missing nodes with support 0. Returns the node of the full
  /// transaction path; supports are brought up to date by the subsequent
  /// Isect pass.
  uint32_t InsertTransactionPath(std::span<const ItemId> items);

  /// The recursion of Figure 2, run on an explicit stack so adversarially
  /// deep repositories (one node per item of a very long transaction)
  /// cannot overflow the call stack. `node` heads a sibling list of the
  /// current tree level; `ins_slot` indexes the link-arena slot
  /// (children/sibling) where intersection results for the current prefix
  /// are merged. `weight` is the multiplicity of the current transaction.
  void Isect(uint32_t node, uint32_t ins_slot, Support weight);

  /// Prune helper: re-inserts the filtered sets of the subtree headed by
  /// `node` into `target`, with `cursor` the target node representing the
  /// filtered path so far. Iterative (explicit work stack).
  void PruneInto(uint32_t node, Support min_support,
                 std::span<const Support> remaining, IstaPrefixTree* target,
                 uint32_t cursor) const;

  /// Finds or creates the child of `parent` carrying `item`; keeps the
  /// sibling list sorted by descending item code.
  uint32_t FindOrCreateChild(uint32_t parent, ItemId item, Support supp);

  /// One suspended sibling list of the explicit Isect stack. `ins_slot`
  /// indexes the link arena, so it stays valid across node allocation.
  struct IsectFrame {
    uint32_t node;
    uint32_t ins_slot;
  };

  // Structure-of-arrays node storage (see the layout note above).
  std::vector<uint32_t> node_step_;
  std::vector<ItemId> node_item_;
  std::vector<Support> node_supp_;
  std::vector<Support> node_trans_;
  std::vector<uint32_t> links_;  // slot 2n: children of n, 2n+1: sibling
  uint32_t next_index_ = 0;
  std::size_t node_count_ = 0;
  std::size_t peak_node_count_ = 0;
  std::size_t prune_count_ = 0;
  uint64_t isect_steps_ = 0;
  uint32_t step_ = 0;
  uint64_t total_weight_ = 0;            // sum of all transaction weights
  std::vector<uint8_t> in_transaction_;  // flag array `trans` of Figure 2
  ItemId imin_ = 0;                      // minimum item of the transaction
  std::vector<IsectFrame> isect_stack_;  // reused across AddTransaction
};

}  // namespace fim

#endif  // FIM_ISTA_PREFIX_TREE_H_

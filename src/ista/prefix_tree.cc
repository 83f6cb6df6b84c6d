#include "ista/prefix_tree.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace fim {

IstaPrefixTree::IstaPrefixTree(std::size_t num_items)
    : in_transaction_(num_items, 0) {
  // Node 0 is the pseudo-root representing the empty set.
  uint32_t root = NewNode(kInvalidItem, 0, 0);
  FIM_CHECK(root == kRoot);
  node_count_ = 0;  // the root does not count
}

uint32_t IstaPrefixTree::NewNode(ItemId item, uint32_t step, Support supp) {
  uint32_t index = next_index_++;
  node_step_.push_back(step);
  node_item_.push_back(item);
  node_supp_.push_back(supp);
  node_trans_.push_back(0);
  links_.push_back(kNil);  // ChildSlot(index)
  links_.push_back(kNil);  // SibSlot(index)
  ++node_count_;
  if (node_count_ > peak_node_count_) peak_node_count_ = node_count_;
  return index;
}

uint32_t IstaPrefixTree::FindOrCreateChild(uint32_t parent, ItemId item,
                                           Support supp) {
  // Sibling lists are sorted by descending item code. The cursor is a
  // link-arena slot index, so it survives the allocation below.
  uint32_t slot = ChildSlot(parent);
  while (links_[slot] != kNil && node_item_[links_[slot]] > item) {
    slot = SibSlot(links_[slot]);
  }
  const uint32_t found = links_[slot];
  if (found != kNil && node_item_[found] == item) return found;
  const uint32_t node = NewNode(item, 0, supp);
  links_[SibSlot(node)] = found;
  links_[slot] = node;
  return node;
}

uint32_t IstaPrefixTree::InsertTransactionPath(std::span<const ItemId> items) {
  uint32_t current = kRoot;
  for (std::size_t idx = items.size(); idx > 0; --idx) {
    current = FindOrCreateChild(current, items[idx - 1], 0);
  }
  return current;
}

void IstaPrefixTree::AddTransaction(std::span<const ItemId> items,
                                    Support weight) {
  FIM_CHECK(!items.empty()) << "transactions must be non-empty";
  FIM_CHECK(weight >= 1) << "transaction weight must be >= 1";
  FIM_DCHECK(std::is_sorted(items.begin(), items.end()) &&
             std::adjacent_find(items.begin(), items.end()) == items.end())
      << "transaction items must be sorted ascending and duplicate-free";
  FIM_DCHECK(items.back() < in_transaction_.size())
      << "item " << items.back() << " out of range (num_items "
      << in_transaction_.size() << ")";
  ++step_;
  total_weight_ += weight;
  for (ItemId i : items) in_transaction_[i] = 1;
  imin_ = items.front();
  node_trans_[InsertTransactionPath(items)] += weight;
  Isect(links_[ChildSlot(kRoot)], ChildSlot(kRoot), weight);
  for (ItemId i : items) in_transaction_[i] = 0;
  // Full validation is O(nodes); amortize it over power-of-two steps so
  // debug test runs stay roughly O(total work * log steps).
  if (FIM_DCHECK_IS_ON() && (step_ & (step_ - 1)) == 0) {
    FIM_DCHECK_OK(ValidateInvariants());
  }
}

void IstaPrefixTree::Isect(uint32_t node, uint32_t ins_slot, Support weight) {
  // The recursion of Figure 2, on an explicit stack: a frame suspends the
  // remainder of a sibling list while the current node's child level is
  // intersected. Insertion cursors are link-arena slot indices, so they
  // stay valid across node allocations. The walk streams over the item,
  // support and link arrays only — the SoA layout keeps the cold
  // step/trans fields off those cache lines.
  isect_stack_.clear();
  isect_stack_.push_back(IsectFrame{node, ins_slot});
  while (!isect_stack_.empty()) {
    node = isect_stack_.back().node;
    uint32_t ins = isect_stack_.back().ins_slot;
    isect_stack_.pop_back();
    while (node != kNil) {
      ++isect_steps_;
      const ItemId i = node_item_[node];
      if (in_transaction_[i]) {
        // The item is in the intersection: find/create the node that
        // represents the extended intersection in the insertion list.
        while (links_[ins] != kNil && node_item_[links_[ins]] > i) {
          ins = SibSlot(links_[ins]);
        }
        uint32_t d = links_[ins];
        if (d != kNil && node_item_[d] == i) {
          // If this node was already updated for the current transaction,
          // discount it before taking the maximum (Figure 2).
          if (node_step_[d] == step_) node_supp_[d] -= weight;
          if (node_supp_[d] < node_supp_[node]) {
            node_supp_[d] = node_supp_[node];
          }
          node_supp_[d] += weight;
          node_step_[d] = step_;
        } else {
          d = NewNode(i, step_, node_supp_[node] + weight);
          links_[SibSlot(d)] = links_[ins];
          links_[ins] = d;
        }
        if (i <= imin_) break;  // nothing below the transaction's minimum
        // Descend into the child level; resume the remaining siblings
        // (with the insertion cursor as advanced so far) afterwards.
        isect_stack_.push_back(IsectFrame{links_[SibSlot(node)], ins});
        const uint32_t child_ins = ChildSlot(d);
        node = links_[ChildSlot(node)];
        ins = child_ins;
      } else {
        if (i <= imin_) break;
        isect_stack_.push_back(IsectFrame{links_[SibSlot(node)], ins});
        node = links_[ChildSlot(node)];
      }
    }
  }
}

void IstaPrefixTree::Report(Support min_support,
                            const ClosedSetCallback& callback) const {
  // Iterative post-order DFS (deep repositories must not overflow the
  // call stack). A frame holds the next unvisited child and the largest
  // child support seen so far (the closedness check of Figure 4).
  struct Frame {
    uint32_t node;
    uint32_t child;
    Support max_child;
  };
  std::vector<Frame> stack;
  std::vector<ItemId> path;       // root path, descending item codes
  std::vector<ItemId> ascending;  // scratch reused across reported sets
  for (uint32_t c = links_[ChildSlot(kRoot)]; c != kNil;
       c = links_[SibSlot(c)]) {
    if (node_supp_[c] < min_support) continue;
    path.push_back(node_item_[c]);
    stack.push_back(Frame{c, links_[ChildSlot(c)], 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.child != kNil) {
        const uint32_t child = frame.child;
        const Support cs = node_supp_[child];
        frame.child = links_[SibSlot(child)];
        if (cs > frame.max_child) frame.max_child = cs;
        if (cs < min_support) continue;
        path.push_back(node_item_[child]);
        stack.push_back(Frame{child, links_[ChildSlot(child)], 0});
        continue;
      }
      if (node_supp_[frame.node] > frame.max_child) {
        // The path is in descending code order; report ascending.
        ascending.assign(path.rbegin(), path.rend());
        callback(ascending, node_supp_[frame.node]);
      }
      path.pop_back();
      stack.pop_back();
    }
  }
}

void IstaPrefixTree::Prune(Support min_support,
                           std::span<const Support> remaining) {
  FIM_DCHECK(remaining.size() == in_transaction_.size())
      << "remaining-occurrence table size " << remaining.size()
      << " != num_items " << in_transaction_.size();
  IstaPrefixTree fresh(in_transaction_.size());
  fresh.step_ = step_;
  fresh.total_weight_ = total_weight_;
  PruneInto(links_[ChildSlot(kRoot)], min_support, remaining, &fresh, kRoot);
  // The rebuilt tree carries on this tree's observability history.
  fresh.peak_node_count_ = std::max(peak_node_count_, fresh.peak_node_count_);
  fresh.prune_count_ = prune_count_ + 1;
  fresh.isect_steps_ = isect_steps_ + fresh.isect_steps_;
  *this = std::move(fresh);
  FIM_DCHECK_OK(ValidateInvariants());
}

obs::MemoryComponent IstaPrefixTree::ApproxMemoryUsage() const {
  // Bytes one node occupies across the four parallel columns, derived
  // from the vectors so a field-type change cannot desynchronize this.
  constexpr std::size_t kColumnBytesPerNode =
      sizeof(node_step_[0]) + sizeof(node_item_[0]) + sizeof(node_supp_[0]) +
      sizeof(node_trans_[0]);
  constexpr std::size_t kLinkBytesPerNode = 2 * sizeof(links_[0]);
  // Reachable slots: the live nodes plus the pseudo-root (which owns
  // column and link slots like any other node).
  const std::size_t live_nodes = node_count_ + 1;

  obs::MemoryComponent tree("prefix-tree");

  obs::MemoryComponent columns("node-columns");
  const std::size_t column_capacity_bytes =
      node_step_.capacity() * sizeof(node_step_[0]) +
      node_item_.capacity() * sizeof(node_item_[0]) +
      node_supp_.capacity() * sizeof(node_supp_[0]) +
      node_trans_.capacity() * sizeof(node_trans_[0]);
  const std::size_t column_live_bytes = live_nodes * kColumnBytesPerNode;
  columns.children.emplace_back("live", column_live_bytes);
  columns.children.emplace_back(
      "garbage", column_capacity_bytes > column_live_bytes
                     ? column_capacity_bytes - column_live_bytes
                     : 0);
  tree.children.push_back(std::move(columns));

  obs::MemoryComponent links("link-arena");
  const std::size_t link_capacity_bytes =
      links_.capacity() * sizeof(links_[0]);
  const std::size_t link_live_bytes = live_nodes * kLinkBytesPerNode;
  links.children.emplace_back("live", link_live_bytes);
  links.children.emplace_back("garbage",
                              link_capacity_bytes > link_live_bytes
                                  ? link_capacity_bytes - link_live_bytes
                                  : 0);
  tree.children.push_back(std::move(links));

  tree.children.emplace_back(
      "scratch",
      in_transaction_.capacity() * sizeof(in_transaction_[0]) +
          isect_stack_.capacity() * sizeof(isect_stack_[0]));
  return tree;
}

namespace {

std::string NodeLabel(uint32_t index, ItemId item) {
  return "node " + std::to_string(index) + " (item " + std::to_string(item) +
         ")";
}

}  // namespace

Status IstaPrefixTree::ValidateInvariants() const {
  const std::size_t num_items = in_transaction_.size();
  if (next_index_ == 0) {
    return Status::Internal("prefix tree: missing pseudo-root");
  }
  if (At(kRoot).item != kInvalidItem) {
    return Status::Internal("prefix tree: root must carry kInvalidItem");
  }
  std::vector<uint8_t> visited(next_index_, 0);
  visited[kRoot] = 1;
  // Each stack entry is the head of an unvisited sibling list plus the
  // node that owns that child list.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  if (At(kRoot).children != kNil) stack.emplace_back(At(kRoot).children, kRoot);
  std::size_t reachable = 0;
  uint64_t trans_weight_sum = 0;
  while (!stack.empty()) {
    auto [head, parent] = stack.back();
    stack.pop_back();
    const ConstNodeRef parent_node = At(parent);
    ItemId prev_item = kInvalidItem;  // sentinel: no left sibling yet
    for (uint32_t n = head; n != kNil; n = At(n).sibling) {
      if (n >= next_index_) {
        return Status::Internal("prefix tree: link to unallocated node " +
                                std::to_string(n));
      }
      const ConstNodeRef node = At(n);
      if (visited[n]) {
        return Status::Internal("prefix tree: " + NodeLabel(n, node.item) +
                                " reachable twice (cycle or shared subtree)");
      }
      visited[n] = 1;
      ++reachable;
      if (node.item >= num_items) {
        return Status::Internal("prefix tree: " + NodeLabel(n, node.item) +
                                " has item code >= num_items " +
                                std::to_string(num_items));
      }
      if (prev_item != kInvalidItem && node.item >= prev_item) {
        return Status::Internal(
            "prefix tree: sibling list not strictly descending at " +
            NodeLabel(n, node.item) + " after item " +
            std::to_string(prev_item));
      }
      prev_item = node.item;
      if (parent != kRoot && node.item >= parent_node.item) {
        return Status::Internal("prefix tree: child " +
                                NodeLabel(n, node.item) +
                                " does not carry a lower code than parent " +
                                NodeLabel(parent, parent_node.item));
      }
      if (node.step > step_) {
        return Status::Internal(
            "prefix tree: " + NodeLabel(n, node.item) + " step stamp " +
            std::to_string(node.step) + " exceeds global step " +
            std::to_string(step_));
      }
      if (parent != kRoot && node.supp > parent_node.supp) {
        return Status::Internal(
            "prefix tree: support not monotone: child " +
            NodeLabel(n, node.item) + " support " + std::to_string(node.supp) +
            " > parent " + NodeLabel(parent, parent_node.item) + " support " +
            std::to_string(parent_node.supp));
      }
      if (node.supp > total_weight_) {
        return Status::Internal(
            "prefix tree: " + NodeLabel(n, node.item) + " support " +
            std::to_string(node.supp) + " exceeds total transaction weight " +
            std::to_string(total_weight_));
      }
      trans_weight_sum += node.trans;
      if (node.children != kNil) stack.emplace_back(node.children, n);
    }
  }
  if (reachable != node_count_) {
    return Status::Internal(
        "prefix tree: node_count_ " + std::to_string(node_count_) +
        " != reachable nodes " + std::to_string(reachable));
  }
  if (reachable + 1 != next_index_) {
    return Status::Internal("prefix tree: " +
                            std::to_string(next_index_ - 1 - reachable) +
                            " allocated nodes are unreachable");
  }
  if (trans_weight_sum > total_weight_) {
    return Status::Internal(
        "prefix tree: stored transaction weights sum to " +
        std::to_string(trans_weight_sum) + " > total added weight " +
        std::to_string(total_weight_));
  }
  for (std::size_t i = 0; i < num_items; ++i) {
    if (in_transaction_[i] != 0) {
      return Status::Internal(
          "prefix tree: transaction flag for item " + std::to_string(i) +
          " not cleared outside AddTransaction");
    }
  }
  return Status::OK();
}

void IstaPrefixTree::PruneInto(uint32_t node, Support min_support,
                               std::span<const Support> remaining,
                               IstaPrefixTree* target, uint32_t cursor) const {
  // Iterative: a work item is one sibling list plus the target cursor
  // representing the filtered path so far (deep repositories must not
  // overflow the call stack).
  struct Frame {
    uint32_t node;
    uint32_t cursor;
  };
  if (node == kNil) return;
  std::vector<Frame> stack;
  stack.push_back(Frame{node, cursor});
  while (!stack.empty()) {
    node = stack.back().node;
    cursor = stack.back().cursor;
    stack.pop_back();
    for (; node != kNil; node = links_[SibSlot(node)]) {
      const ItemId item = node_item_[node];
      const Support supp = node_supp_[node];
      const Support trans = node_trans_[node];
      uint32_t next_cursor = cursor;
      if (supp + remaining[item] >= min_support) {
        // The item can still contribute to a frequent set: keep it.
        next_cursor = target->FindOrCreateChild(cursor, item, 0);
        if (supp > target->node_supp_[next_cursor]) {
          target->node_supp_[next_cursor] = supp;
        }
        target->node_trans_[next_cursor] += trans;
      } else if (cursor != kRoot) {
        // Drop the item; the reduced set keeps the best support seen and
        // accumulates the reduced transactions' weight.
        if (supp > target->node_supp_[cursor]) {
          target->node_supp_[cursor] = supp;
        }
        target->node_trans_[cursor] += trans;
      }
      // Transactions whose items are all dropped reduce to the empty set
      // and vanish (the repository never stores empty transactions);
      // their weight can no longer matter for any frequent set.
      const uint32_t kids = links_[ChildSlot(node)];
      if (kids != kNil) stack.push_back(Frame{kids, next_cursor});
    }
  }
}

}  // namespace fim

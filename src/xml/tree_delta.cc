#include "xml/tree_delta.h"

#include <utility>

#include "common/codec.h"

namespace smoqe::xml {

namespace {

/// True iff `id` is an element still attached to the document (tombstoned
/// slots have a null parent but are not the root). O(depth).
bool IsReachableElement(const Tree& tree, NodeId id) {
  if (id < 0 || id >= tree.size() || !tree.is_element(id)) return false;
  NodeId n = id;
  while (tree.parent(n) != kNullNode) n = tree.parent(n);
  return n == tree.root();
}

Status OpError(size_t index, const char* what) {
  return Status::FailedPrecondition("TreeDelta op #" + std::to_string(index) +
                                    ": " + what);
}

}  // namespace

Fragment Fragment::Capture(const Tree& tree, NodeId root) {
  Fragment out;
  // Explicit (node, fragment-parent-index) stack; children re-pushed in
  // reverse so the items come out in document (pre)order.
  std::vector<std::pair<NodeId, int32_t>> stack = {{root, -1}};
  std::vector<NodeId> kids;
  while (!stack.empty()) {
    auto [n, parent_idx] = stack.back();
    stack.pop_back();
    Item item;
    item.is_text = !tree.is_element(n);
    item.parent = parent_idx;
    item.value = item.is_text ? tree.text_value(n) : tree.label_name(n);
    const int32_t idx = static_cast<int32_t>(out.items.size());
    out.items.push_back(std::move(item));
    kids.clear();
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, idx);
    }
  }
  return out;
}

NodeId Fragment::Instantiate(Tree* tree, NodeId parent,
                             int32_t before_index) const {
  NodeId before = kNullNode;
  if (before_index > 0) {
    for (NodeId c = tree->first_child(parent); c != kNullNode;
         c = tree->next_sibling(c)) {
      if (tree->child_index(c) == before_index) {
        before = c;
        break;
      }
    }
  }
  std::vector<NodeId> ids(items.size(), kNullNode);
  ids[0] = tree->InsertElementBefore(parent, before, items[0].value);
  for (size_t i = 1; i < items.size(); ++i) {
    const Item& item = items[i];
    const NodeId p = ids[item.parent];
    ids[i] = item.is_text ? tree->AddText(p, item.value)
                          : tree->AddElement(p, item.value);
  }
  return ids[0];
}

int32_t Fragment::CountElements() const {
  int32_t count = 0;
  for (const Item& item : items) {
    if (!item.is_text) ++count;
  }
  return count;
}

void TreeDelta::AddInsert(NodeId parent, int32_t before_index,
                          Fragment fragment) {
  DeltaOp op;
  op.kind = DeltaOpKind::kInsert;
  op.target = parent;
  op.before_index = before_index;
  op.fragment = std::move(fragment);
  ops_.push_back(std::move(op));
}

void TreeDelta::AddDelete(NodeId victim) {
  DeltaOp op;
  op.kind = DeltaOpKind::kDelete;
  op.target = victim;
  ops_.push_back(std::move(op));
}

void TreeDelta::AddRelabel(NodeId node, std::string_view label) {
  DeltaOp op;
  op.kind = DeltaOpKind::kRelabel;
  op.target = node;
  op.label = std::string(label);
  ops_.push_back(std::move(op));
}

Status TreeDelta::ApplyTo(Tree* tree, DocPlane::Maintainer* maintainer) const {
  for (size_t i = 0; i < ops_.size(); ++i) {
    const DeltaOp& op = ops_[i];
    switch (op.kind) {
      case DeltaOpKind::kRelabel:
        if (!IsReachableElement(*tree, op.target)) {
          return OpError(i, "relabel target is not a reachable element");
        }
        tree->Relabel(op.target, op.label);
        if (maintainer) maintainer->ApplyRelabel(*tree, op.target);
        break;
      case DeltaOpKind::kDelete:
        if (!IsReachableElement(*tree, op.target)) {
          return OpError(i, "delete victim is not a reachable element");
        }
        if (op.target == tree->root()) {
          return OpError(i, "cannot delete the root");
        }
        tree->DetachSubtree(op.target);
        if (maintainer) maintainer->ApplyDelete(op.target);
        break;
      case DeltaOpKind::kInsert: {
        if (!IsReachableElement(*tree, op.target)) {
          return OpError(i, "insert parent is not a reachable element");
        }
        // The same shape a snapshot must have: an element root, parents
        // before children, and nothing under a text item.
        const std::vector<Fragment::Item>& items = op.fragment.items;
        bool tree_shaped =
            !items.empty() && !items[0].is_text && items[0].parent == -1;
        for (size_t j = 1; tree_shaped && j < items.size(); ++j) {
          const int32_t p = items[j].parent;
          tree_shaped =
              p >= 0 && static_cast<size_t>(p) < j && !items[p].is_text;
        }
        if (!tree_shaped) {
          return OpError(i, "fragment is not an element-rooted tree");
        }
        const NodeId root =
            op.fragment.Instantiate(tree, op.target, op.before_index);
        if (maintainer) maintainer->ApplyInsert(*tree, root);
        break;
      }
    }
  }
  return Status::OK();
}

void TreeDelta::Serialize(std::string* out) const {
  common::PutU64(out, from_version_);
  common::PutU64(out, to_version_);
  common::PutU32(out, static_cast<uint32_t>(ops_.size()));
  for (const DeltaOp& op : ops_) {
    common::PutU8(out, static_cast<uint8_t>(op.kind));
    common::PutI32(out, op.target);
    common::PutI32(out, op.before_index);
    common::PutBytes(out, op.label);
    common::PutU32(out, static_cast<uint32_t>(op.fragment.items.size()));
    for (const Fragment::Item& item : op.fragment.items) {
      common::PutU8(out, item.is_text ? 1 : 0);
      common::PutI32(out, item.parent);
      common::PutBytes(out, item.value);
    }
  }
}

StatusOr<TreeDelta> TreeDelta::Deserialize(std::string_view bytes) {
  common::Cursor cur(bytes);
  TreeDelta delta;
  uint32_t op_count = 0;
  if (!cur.ReadU64(&delta.from_version_) || !cur.ReadU64(&delta.to_version_) ||
      !cur.ReadU32(&op_count)) {
    return Status::ParseError("delta: truncated header");
  }
  // Each op encodes to >= 13 bytes, so a count the remaining input cannot
  // hold is corruption -- reject before reserving.
  if (op_count > cur.remaining() / 13) {
    return Status::ParseError("delta: op count exceeds payload");
  }
  delta.ops_.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    DeltaOp op;
    uint8_t kind = 0;
    uint32_t item_count = 0;
    if (!cur.ReadU8(&kind) || !cur.ReadI32(&op.target) ||
        !cur.ReadI32(&op.before_index) || !cur.ReadBytes(&op.label) ||
        !cur.ReadU32(&item_count)) {
      return Status::ParseError("delta: truncated op");
    }
    if (kind > static_cast<uint8_t>(DeltaOpKind::kRelabel)) {
      return Status::ParseError("delta: unknown op kind");
    }
    op.kind = static_cast<DeltaOpKind>(kind);
    if (item_count > cur.remaining() / 9) {  // items are >= 9 bytes
      return Status::ParseError("delta: item count exceeds payload");
    }
    op.fragment.items.reserve(item_count);
    for (uint32_t j = 0; j < item_count; ++j) {
      Fragment::Item item;
      uint8_t is_text = 0;
      if (!cur.ReadU8(&is_text) || !cur.ReadI32(&item.parent) ||
          !cur.ReadBytes(&item.value)) {
        return Status::ParseError("delta: truncated fragment item");
      }
      // Preorder parent links: the root at -1, every other item pointing at
      // an EARLIER item (Instantiate indexes items by these).
      const bool valid_parent =
          (j == 0 && item.parent == -1) ||
          (j > 0 && item.parent >= 0 && static_cast<uint32_t>(item.parent) < j);
      if (!valid_parent || (j == 0 && is_text != 0)) {
        return Status::ParseError("delta: malformed fragment structure");
      }
      item.is_text = is_text != 0;
      op.fragment.items.push_back(std::move(item));
    }
    delta.ops_.push_back(std::move(op));
  }
  if (cur.remaining() != 0) {
    return Status::ParseError("delta: trailing bytes");
  }
  return delta;
}

bool StructurallyEqual(const Tree& a, const Tree& b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty();
  std::vector<std::pair<NodeId, NodeId>> stack = {{a.root(), b.root()}};
  std::vector<std::pair<NodeId, NodeId>> kids;
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (a.kind(x) != b.kind(y)) return false;
    if (a.is_element(x)) {
      if (a.label_name(x) != b.label_name(y)) return false;
    } else {
      if (a.text_value(x) != b.text_value(y)) return false;
    }
    kids.clear();
    NodeId cx = a.first_child(x);
    NodeId cy = b.first_child(y);
    while (cx != kNullNode && cy != kNullNode) {
      kids.emplace_back(cx, cy);
      cx = a.next_sibling(cx);
      cy = b.next_sibling(cy);
    }
    if (cx != cy) return false;  // one side has extra children
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return true;
}

}  // namespace smoqe::xml

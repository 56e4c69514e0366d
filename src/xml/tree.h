// The XML document tree: the data model every evaluator in SMOQE runs on.
//
// A Tree is an arena of nodes addressed by int32 NodeId. Nodes are either
// elements (with an interned label) or text nodes (with a string value),
// matching the paper's model (Section 2): no attributes, no namespaces.
//
// Parents are always created before their children, so ids increase along
// every root-to-leaf path; builders that append in depth-first order (the
// XML parser, the materializer) additionally make NodeId order coincide with
// document order. Answer sets are reported as sorted id vectors.
//
// MUTATION. A tree is mutable by a SINGLE writer: Relabel, DetachSubtree and
// InsertElementBefore/InsertTextBefore edit the sibling links in place.
// NodeIds are stable across edits -- a detached subtree's arena slots are
// simply unreachable from the root (traversals never see them again; the
// slots are not compacted), and inserted nodes take fresh ids at the end of
// the arena, so "parents precede children" keeps holding while sibling id
// order stops implying document order (xml::DocPlane::Build handles any
// order). Mutating a tree that concurrent readers are traversing is a data
// race; xml::EpochPublisher (plane_epoch.h) provides the copy-on-write
// snapshot discipline that lets readers and one writer coexist, and
// xml::TreeDelta (tree_delta.h) is the versioned edit unit the publisher
// applies.

#ifndef SMOQE_XML_TREE_H_
#define SMOQE_XML_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/name_table.h"

namespace smoqe::xml {

using NodeId = int32_t;
inline constexpr NodeId kNullNode = -1;

enum class NodeKind : uint8_t { kElement, kText };

struct Node {
  NodeKind kind = NodeKind::kElement;
  LabelId label = kNoLabel;      // element label; kNoLabel for text nodes
  int32_t text = -1;             // index into the text pool; -1 for elements
  NodeId parent = kNullNode;
  NodeId first_child = kNullNode;
  NodeId last_child = kNullNode;
  NodeId next_sibling = kNullNode;
  int32_t child_index = 0;       // 1-based position among siblings (position())
};

class Tree {
 public:
  /// Creates the root element. Must be called exactly once, first.
  NodeId AddRoot(std::string_view label);

  /// Appends an element child to `parent` (in document order).
  NodeId AddElement(NodeId parent, std::string_view label);

  /// Appends a text child to `parent`.
  NodeId AddText(NodeId parent, std::string_view text);

  // ---- mutation (single writer; see the header note) ----

  /// Changes the label of an element node (interning `label` if new).
  void Relabel(NodeId id, std::string_view label);

  /// Unlinks the subtree rooted at `id` (any node but the root) from the
  /// document. The slots keep their ids but become unreachable; following
  /// siblings are renumbered (child_index). O(subtree + later siblings).
  void DetachSubtree(NodeId id);

  /// Inserts a new element child of `parent` immediately before `before`
  /// (which must be a child of `parent`), or as the last child when `before`
  /// is kNullNode. The new node gets a fresh id at the end of the arena;
  /// following siblings are renumbered.
  NodeId InsertElementBefore(NodeId parent, NodeId before,
                             std::string_view label);

  /// Text-node counterpart of InsertElementBefore.
  NodeId InsertTextBefore(NodeId parent, NodeId before, std::string_view text);

  /// Element nodes in the subtree rooted at `id` (including `id` when it is
  /// an element). Iterative; O(subtree).
  int32_t CountSubtreeElements(NodeId id) const;

  NodeId root() const { return root_; }
  bool empty() const { return nodes_.empty(); }
  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }

  const Node& node(NodeId id) const { return nodes_[id]; }
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  bool is_element(NodeId id) const { return nodes_[id].kind == NodeKind::kElement; }
  LabelId label(NodeId id) const { return nodes_[id].label; }
  const std::string& label_name(NodeId id) const { return labels_.name(nodes_[id].label); }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const { return nodes_[id].first_child; }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }
  int32_t child_index(NodeId id) const { return nodes_[id].child_index; }

  /// Value of a text node.
  const std::string& text_value(NodeId id) const { return texts_[nodes_[id].text]; }

  /// Concatenation of the values of `id`'s direct text children (the string
  /// the paper's `text() = 'c'` predicate compares against).
  std::string TextOf(NodeId id) const;

  /// True iff some direct text child of `id` equals `value` exactly, or the
  /// concatenated text equals it (both conventions coincide for DTDs in the
  /// paper's normal form, where PCDATA elements have one text child).
  bool HasText(NodeId id, std::string_view value) const;

  const NameTable& labels() const { return labels_; }
  NameTable* mutable_labels() { return &labels_; }

  /// Number of REACHABLE element (resp. text) nodes -- detached subtrees are
  /// excluded, though their arena slots still count toward size(). O(1).
  int32_t CountElements() const { return num_elements_; }
  int32_t CountTexts() const { return size() - num_elements_ - num_detached_; }

  /// Arena slots unreachable after DetachSubtree calls (compaction is left
  /// to a future epoch-rebuild pass). O(1).
  int32_t CountDetached() const { return num_detached_; }

  /// Length of the longest root-to-leaf path (root alone = 1). 0 if empty.
  int32_t Depth() const;

  /// Rough serialized size in bytes (for reporting dataset scale).
  int64_t ApproxByteSize() const;

 private:
  NodeId Append(NodeId parent, Node node);
  NodeId InsertBefore(NodeId parent, NodeId before, Node node);

  // Storage-layer snapshot codec (storage/snapshot.cc). It needs bit-exact
  // access to the raw arena -- detached slots included -- because WAL
  // deltas address nodes by NodeId: a recovered tree must reproduce the
  // arena layout exactly for replay to target the same slots.
  friend struct TreeCodec;

  NameTable labels_;
  std::vector<Node> nodes_;
  std::vector<std::string> texts_;
  NodeId root_ = kNullNode;
  int32_t num_elements_ = 0;
  int32_t num_detached_ = 0;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_TREE_H_

// The columnar document plane: a structure-of-arrays mirror of a Tree in
// preorder, built for traversal instead of construction.
//
// DESIGN NOTE (columnar traversal and label skipping)
// ---------------------------------------------------
// Every evaluator in SMOQE walks the document depth-first. On the pointer
// arena (xml::Tree::Node, ~28 bytes of parent/child/sibling links) that walk
// is a chain of dependent loads: decode a node, chase first_child, chase
// next_sibling, skip text nodes -- one cache line of mostly-unused fields
// per step. The HyPE family prunes whole subtrees, but every SURVIVING
// region is still paid for node by node, even when the live engines are in a
// "simple" configuration waiting for a handful of labels.
//
// The DocPlane replaces that walk with dense arrays over the ELEMENT nodes
// of one tree, indexed by preorder position `pos` (text nodes never carry
// evaluation state; their contribution is folded into a presence bit):
//
//   labels_[pos]   the element's interned label
//   parent_[pos]   the parent's position (-1 at the root position)
//   depth_[pos]    root position = 0
//   extent_[pos]   number of element DESCENDANTS, so the subtree occupying
//                  [pos, pos + extent_[pos] + 1) is skipped by a single
//                  cursor addition -- no pointer chase, no stack
//   text_bits_    one bit per position: the element has a text child (the
//                  prefilter for text() = 'c' predicates)
//   node_of_/pos_of_  the position <-> NodeId bijection (answers are
//                  reported as NodeIds; positions are traversal-internal)
//
// plus one POSTING LIST per label: the sorted positions where the label
// occurs, packed back-to-back in a single pool (each position carries
// exactly one label, so the lists are pairwise disjoint and partition the
// position space -- content-interning across labels would never fire; the
// pool buys consolidation, not sharing). Postings turn "find the next node
// with a label in set R inside this subtree" into a handful of
// lower_bounds -- the structural-index idea OptHyPE applies to pruning,
// extended to navigation.
// HyPE's one traversal driver (BatchHypeEvaluator's joint pass; a solo
// HypeEvaluator is a batch of one) uses exactly that query for its jump
// mode: when every engine at a node rides framelessly in a final-free
// configuration, only positions whose label is in the merged relevant set
// can change any engine's state, and the driver leaps from candidate to
// candidate, accounting the skipped transparent positions in bulk (see the
// jump-mode note in hype/batch_hype.h).
//
// DocPlane::Build(tree) makes one in a single explicit-stack DFS over a
// finished tree (any construction order -- NodeId order need not be
// preorder).
//
// The plane borrows the tree it mirrors (like SubtreeLabelIndex); it is
// immutable after construction and safe to share read-only across threads.
// It does not observe later tree mutations. When the tree DOES mutate,
// DocPlane::Maintainer derives the next plane from the previous one by
// splicing the columnar arrays (memmove-style, no pointer-chasing DFS):
// each bounded-region edit patches extents along the ancestor chain, shifts
// the per-label posting lists, and re-derives only the suffix of the
// NodeId<->position map that actually moved. xml::EpochPublisher
// (plane_epoch.h) wraps that into copy-on-write snapshots.

#ifndef SMOQE_XML_DOC_PLANE_H_
#define SMOQE_XML_DOC_PLANE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/name_table.h"
#include "xml/tree.h"

namespace smoqe::xml {

class DocPlane {
 public:
  /// An empty plane (not usable for traversal); assign from Build or
  /// Maintainer::Take.
  DocPlane() = default;

  /// Mirrors a finished tree (one DFS; handles any node-insertion order).
  static DocPlane Build(const Tree& tree);

  /// Number of element positions (== tree.CountElements()).
  int32_t size() const { return static_cast<int32_t>(labels_.size()); }

  LabelId label(int32_t pos) const { return labels_[pos]; }
  int32_t parent(int32_t pos) const { return parent_[pos]; }
  int32_t depth(int32_t pos) const { return depth_[pos]; }
  int32_t extent(int32_t pos) const { return extent_[pos]; }
  bool has_text(int32_t pos) const {
    return (text_bits_[pos >> 6] >> (pos & 63)) & 1;
  }

  /// One past the last descendant position: the subtree of `pos` occupies
  /// [pos, end_of(pos)).
  int32_t end_of(int32_t pos) const { return pos + extent_[pos] + 1; }

  NodeId node_at(int32_t pos) const { return node_of_[pos]; }
  /// Position of an element node; -1 for text nodes.
  int32_t pos_of(NodeId id) const { return pos_of_[id]; }

  /// Sorted positions where `label` occurs (empty span for labels that
  /// never occur, including out-of-range ids from a foreign NameTable).
  std::span<const int32_t> postings(LabelId label) const {
    if (label < 0 || label >= static_cast<LabelId>(posting_ref_.size())) {
      return {};
    }
    const auto& [offset, count] = posting_ref_[label];
    return {posting_pool_.data() + offset, static_cast<size_t>(count)};
  }

  size_t MemoryBytes() const;

  /// Field-by-field equality (labels, parents, depths, extents, text bits,
  /// NodeId maps, postings). The bit-identity oracle for the incremental
  /// maintainer: a patched plane must SameAs a from-scratch Build.
  bool SameAs(const DocPlane& other) const;

  /// Patches an existing plane after bounded-region tree edits; defined
  /// below the class.
  class Maintainer;

 private:
  /// Derives pos_of_ and the posting pool once the per-position columns
  /// are filled; Build and Maintainer::Take both end here, so their planes
  /// pack identically. Consumes `postings` (per-label sorted positions).
  void Seal(const Tree& tree, std::vector<std::vector<int32_t>>* postings);

  std::vector<LabelId> labels_;
  std::vector<int32_t> parent_;
  std::vector<int32_t> depth_;
  std::vector<int32_t> extent_;
  std::vector<uint64_t> text_bits_;
  std::vector<NodeId> node_of_;
  std::vector<int32_t> pos_of_;
  // Posting storage: per label an (offset, count) into one shared pool
  // (see the design note).
  std::vector<int32_t> posting_pool_;
  std::vector<std::pair<int32_t, int32_t>> posting_ref_;
};

/// Derives the plane of an edited tree from the plane of its predecessor.
///
/// Construction unpacks the base plane's packed forms (text bits, posting
/// pool) into splice-friendly working arrays -- one O(plane) pass. Each
/// Apply* then patches a bounded region: array splices for the edited
/// subtree's rows, an extent walk up the ancestor chain, posting-list
/// shifts, and a suffix refresh of the position map. Take() repacks into an
/// immutable DocPlane that is bit-identical (SameAs) to DocPlane::Build on
/// the edited tree -- the property the randomized delta tests and the
/// bench_mutation gate enforce.
///
/// Apply* calls mirror Tree edits and must be issued AFTER the tree edit,
/// in the same order. One Maintainer serves many edits; Take() consumes it.
class DocPlane::Maintainer {
 public:
  explicit Maintainer(const DocPlane& base);

  /// After Tree::Relabel(node, ...): patch the label column + postings.
  void ApplyRelabel(const Tree& tree, NodeId node);
  /// After Tree::DetachSubtree(victim): splice the subtree's rows out.
  void ApplyDelete(NodeId victim);
  /// After inserting `fragment_root` (and its subtree) into the tree:
  /// splice the fragment's freshly-built rows in.
  void ApplyInsert(const Tree& tree, NodeId fragment_root);

  /// Repacks into an immutable plane for `tree` (which must reflect every
  /// applied edit). The maintainer is spent afterwards.
  DocPlane Take(const Tree& tree);

 private:
  void RefreshPosOf(int32_t from_pos);

  // Working (unpacked) columns; same meaning as the DocPlane members.
  std::vector<LabelId> labels_;
  std::vector<int32_t> parent_;
  std::vector<int32_t> depth_;
  std::vector<int32_t> extent_;
  std::vector<uint8_t> text_;  // unpacked text_bits_
  std::vector<NodeId> node_of_;
  std::vector<int32_t> pos_of_;  // grown on demand as the arena grows
  std::vector<std::vector<int32_t>> postings_;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_DOC_PLANE_H_

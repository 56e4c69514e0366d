// Subtree-label index powering OptHyPE and OptHyPE-C (Section 6, "Variants
// of HyPE").
//
// For every tree node the index knows (an over-approximation of) the set of
// element labels occurring *strictly below* it. HyPE consults it before
// descending: a requested NFA/AFA state that cannot possibly reach an
// accepting configuration with only those labels is dropped, and a child
// with no surviving states is skipped entirely.
//
// Two storage modes:
//  - kFull (OptHyPE): one interned set id per node. Distinct sets are
//    hash-consed, so per-node storage is a single int32.
//  - kCompressed (OptHyPE-C): set ids are stored only for nodes whose subtree
//    has at least `threshold` elements; smaller subtrees inherit the nearest
//    indexed ancestor's set (a superset, hence sound). This shrinks the index
//    by roughly the threshold factor while keeping the pruning power where it
//    matters -- large subtrees.

#ifndef SMOQE_HYPE_INDEX_H_
#define SMOQE_HYPE_INDEX_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/name_table.h"
#include "xml/tree.h"

namespace smoqe::hype {

class SubtreeLabelIndex {
 public:
  enum class Mode { kFull, kCompressed };

  /// An empty index (not usable for evaluation); assign from Build().
  SubtreeLabelIndex() = default;

  static SubtreeLabelIndex Build(const xml::Tree& tree, Mode mode,
                                 int threshold = 16);

  /// Set id for labels strictly below `node`. `parent_effective` must be the
  /// effective set of the parent (use SetForContext at the evaluation
  /// context). O(1); in compressed mode a presence bitmap avoids hashing for
  /// the (majority of) nodes without their own entry.
  int32_t EffectiveSet(xml::NodeId node, int32_t parent_effective) const {
    if (mode_ == Mode::kFull) return per_node_[node];
    if (!(has_entry_[node / 64] >> (node % 64) & 1)) return parent_effective;
    return sparse_.find(node)->second;
  }

  /// Effective set for an arbitrary evaluation context. In compressed mode
  /// the nearest-indexed-ancestor walk is memoized per context node; the
  /// memo is read concurrently by every shard worker and the probe pass, so
  /// the hit path takes a SHARED lock (std::shared_mutex) and only a memo
  /// miss upgrades to the exclusive side. Thread-safe; copies of the index
  /// share the memo.
  int32_t SetForContext(const xml::Tree& tree, xml::NodeId context) const;

  bool Contains(int32_t set_id, LabelId tree_label) const {
    if (tree_label < 0 || tree_label >= num_labels_) return false;
    return (set_pool_[static_cast<size_t>(set_id) * words_ + tree_label / 64] >>
            (tree_label % 64)) &
           1;
  }

  /// True iff the set contains no element labels at all (leaf subtree).
  bool IsEmpty(int32_t set_id) const {
    for (int w = 0; w < words_; ++w) {
      if (set_pool_[static_cast<size_t>(set_id) * words_ + w] != 0) return false;
    }
    return true;
  }

  /// Index memory footprint (the number the OptHyPE-C comparison is about).
  size_t MemoryBytes() const;

  Mode mode() const { return mode_; }

 private:
  // Context -> effective-set memo for the compressed mode's ancestor walk.
  // Heap-held behind a shared_ptr so the index stays copy/movable (Build
  // returns by value). Read-mostly: concurrent shard workers take the
  // shared side on hits, writers the exclusive side on the first walk per
  // context.
  struct ContextMemo {
    std::shared_mutex mu;
    std::unordered_map<xml::NodeId, int32_t> sets;
  };

  Mode mode_ = Mode::kFull;
  int num_labels_ = 0;
  int words_ = 0;
  std::vector<uint64_t> set_pool_;                  // num_sets x words_
  std::vector<int32_t> per_node_;                   // kFull
  std::unordered_map<xml::NodeId, int32_t> sparse_; // kCompressed
  std::vector<uint64_t> has_entry_;                 // kCompressed bitmap
  std::shared_ptr<ContextMemo> context_memo_;       // kCompressed
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_INDEX_H_

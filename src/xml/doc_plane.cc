#include "xml/doc_plane.h"

#include <algorithm>
#include <cassert>

namespace smoqe::xml {

DocPlane DocPlane::Build(const Tree& tree) {
  DocPlane plane;
  std::vector<std::vector<int32_t>> postings(tree.labels().size());
  // Explicit-stack preorder DFS over elements; node insertion order is
  // irrelevant (generators may interleave subtree construction). Each open
  // element holds its position and the next child to consider.
  std::vector<std::pair<int32_t, NodeId>> open;
  auto enter = [&](NodeId node) {
    const int32_t pos = plane.size();
    const LabelId label = tree.label(node);
    plane.labels_.push_back(label);
    plane.parent_.push_back(open.empty() ? -1 : open.back().first);
    plane.depth_.push_back(static_cast<int32_t>(open.size()));
    plane.extent_.push_back(0);  // fixed up once the subtree is done
    plane.node_of_.push_back(node);
    if ((pos & 63) == 0) plane.text_bits_.push_back(0);
    postings[label].push_back(pos);  // positions arrive sorted
    open.emplace_back(pos, tree.first_child(node));
  };
  if (!tree.empty()) enter(tree.root());
  while (!open.empty()) {
    auto& [pos, next] = open.back();
    while (next != kNullNode && !tree.is_element(next)) {
      if (tree.kind(next) == NodeKind::kText) {
        plane.text_bits_[pos >> 6] |= uint64_t{1} << (pos & 63);
      }
      next = tree.next_sibling(next);
    }
    if (next == kNullNode) {
      plane.extent_[pos] = plane.size() - pos - 1;
      open.pop_back();
    } else {
      const NodeId child = next;
      next = tree.next_sibling(child);
      enter(child);  // may reallocate `open`; pos and next are dead here
    }
  }
  plane.Seal(tree, &postings);
  return plane;
}

void DocPlane::Seal(const Tree& tree,
                    std::vector<std::vector<int32_t>>* postings) {
  // Rebuilt from scratch so slots of detached nodes read -1.
  pos_of_.assign(tree.size(), -1);
  for (int32_t pos = 0; pos < size(); ++pos) pos_of_[node_of_[pos]] = pos;

  // Pack the per-label lists into one contiguous pool, in label order.
  // Every position carries exactly one label, so the lists are pairwise
  // disjoint -- content-interning across labels would never fire; the
  // pool's value is consolidation (one allocation, dense spans) alone.
  if (tree.labels().size() > static_cast<int32_t>(postings->size())) {
    postings->resize(tree.labels().size());
  }
  posting_ref_.assign(postings->size(), {0, 0});
  posting_pool_.reserve(labels_.size());
  for (size_t l = 0; l < postings->size(); ++l) {
    const std::vector<int32_t>& list = (*postings)[l];
    if (list.empty()) continue;
    const int32_t offset = static_cast<int32_t>(posting_pool_.size());
    posting_pool_.insert(posting_pool_.end(), list.begin(), list.end());
    posting_ref_[l] = {offset, static_cast<int32_t>(list.size())};
  }
  postings->clear();
}

bool DocPlane::SameAs(const DocPlane& other) const {
  return labels_ == other.labels_ && parent_ == other.parent_ &&
         depth_ == other.depth_ && extent_ == other.extent_ &&
         text_bits_ == other.text_bits_ && node_of_ == other.node_of_ &&
         pos_of_ == other.pos_of_ && posting_pool_ == other.posting_pool_ &&
         posting_ref_ == other.posting_ref_;
}

DocPlane::Maintainer::Maintainer(const DocPlane& base)
    : labels_(base.labels_),
      parent_(base.parent_),
      depth_(base.depth_),
      extent_(base.extent_),
      node_of_(base.node_of_),
      pos_of_(base.pos_of_) {
  // Unpack the bit-packed and pooled forms into splice-friendly working
  // arrays (the only O(plane) cost until Take repacks).
  const int32_t n = base.size();
  text_.resize(n);
  for (int32_t pos = 0; pos < n; ++pos) {
    text_[pos] = base.has_text(pos) ? 1 : 0;
  }
  postings_.resize(base.posting_ref_.size());
  for (size_t l = 0; l < base.posting_ref_.size(); ++l) {
    const auto span = base.postings(static_cast<LabelId>(l));
    postings_[l].assign(span.begin(), span.end());
  }
}

void DocPlane::Maintainer::RefreshPosOf(int32_t from_pos) {
  for (int32_t pos = from_pos; pos < static_cast<int32_t>(node_of_.size());
       ++pos) {
    pos_of_[node_of_[pos]] = pos;
  }
}

void DocPlane::Maintainer::ApplyRelabel(const Tree& tree, NodeId node) {
  const int32_t pos = pos_of_[node];
  const LabelId from = labels_[pos];
  const LabelId to = tree.label(node);
  if (from == to) return;
  labels_[pos] = to;
  auto& old_list = postings_[from];
  old_list.erase(std::lower_bound(old_list.begin(), old_list.end(), pos));
  if (to >= static_cast<LabelId>(postings_.size())) postings_.resize(to + 1);
  auto& new_list = postings_[to];
  new_list.insert(std::lower_bound(new_list.begin(), new_list.end(), pos),
                  pos);
}

void DocPlane::Maintainer::ApplyDelete(NodeId victim) {
  const int32_t pos = pos_of_[victim];
  const int32_t end = pos + extent_[pos] + 1;
  const int32_t k = end - pos;
  // Ancestors lose k descendants; they all sit before `pos`, so their
  // positions are untouched by the splice below.
  for (int32_t a = parent_[pos]; a != -1; a = parent_[a]) extent_[a] -= k;
  for (int32_t q = pos; q < end; ++q) pos_of_[node_of_[q]] = -1;
  // Tail parents at/after the erased range slide down with it; parents
  // inside (pos, end) are impossible for tail rows (subtrees are
  // contiguous), and parents before `pos` do not move.
  for (int32_t q = end; q < static_cast<int32_t>(parent_.size()); ++q) {
    if (parent_[q] >= end) parent_[q] -= k;
  }
  labels_.erase(labels_.begin() + pos, labels_.begin() + end);
  parent_.erase(parent_.begin() + pos, parent_.begin() + end);
  depth_.erase(depth_.begin() + pos, depth_.begin() + end);
  extent_.erase(extent_.begin() + pos, extent_.begin() + end);
  text_.erase(text_.begin() + pos, text_.begin() + end);
  node_of_.erase(node_of_.begin() + pos, node_of_.begin() + end);
  for (auto& list : postings_) {
    const auto lo = std::lower_bound(list.begin(), list.end(), pos);
    const auto hi = std::lower_bound(lo, list.end(), end);
    const auto tail = list.erase(lo, hi);
    for (auto it = tail; it != list.end(); ++it) *it -= k;
  }
  RefreshPosOf(pos);
}

void DocPlane::Maintainer::ApplyInsert(const Tree& tree,
                                       NodeId fragment_root) {
  // The fragment slots in immediately before its preorder successor
  // OUTSIDE the fragment: the next element sibling, walking up when a node
  // is the last element child.
  int32_t at = static_cast<int32_t>(labels_.size());
  for (NodeId n = fragment_root; tree.parent(n) != kNullNode;
       n = tree.parent(n)) {
    NodeId s = tree.next_sibling(n);
    while (s != kNullNode && !tree.is_element(s)) s = tree.next_sibling(s);
    if (s != kNullNode) {
      at = pos_of_[s];
      break;
    }
  }
  const int32_t parent_pos = pos_of_[tree.parent(fragment_root)];

  // Emit the fragment's rows with a builder-style DFS (depths and parents
  // relative to the splice point).
  std::vector<LabelId> f_labels;
  std::vector<int32_t> f_parent, f_depth, f_extent;
  std::vector<uint8_t> f_text;
  std::vector<NodeId> f_node;
  std::vector<int32_t> open;
  std::vector<NodeId> stack = {fragment_root};
  std::vector<NodeId> cursor = {tree.first_child(fragment_root)};
  auto enter = [&](NodeId n) {
    const int32_t rel = static_cast<int32_t>(f_labels.size());
    f_labels.push_back(tree.label(n));
    f_parent.push_back(open.empty() ? parent_pos : at + open.back());
    f_depth.push_back(depth_[parent_pos] + 1 +
                      static_cast<int32_t>(open.size()));
    f_extent.push_back(0);
    f_text.push_back(0);
    f_node.push_back(n);
    open.push_back(rel);
  };
  enter(fragment_root);
  while (!stack.empty()) {
    NodeId c = cursor.back();
    while (c != kNullNode && !tree.is_element(c)) {
      if (tree.kind(c) == NodeKind::kText) f_text[open.back()] = 1;
      c = tree.next_sibling(c);
    }
    if (c == kNullNode) {
      const int32_t rel = open.back();
      open.pop_back();
      f_extent[rel] = static_cast<int32_t>(f_labels.size()) - rel - 1;
      stack.pop_back();
      cursor.pop_back();
      continue;
    }
    cursor.back() = tree.next_sibling(c);
    enter(c);
    stack.push_back(c);
    cursor.push_back(tree.first_child(c));
  }
  const int32_t k = static_cast<int32_t>(f_labels.size());

  // Ancestors gain k descendants; tail rows and their at/after-`at`
  // parents slide up.
  for (int32_t a = parent_pos; a != -1; a = parent_[a]) extent_[a] += k;
  for (int32_t q = at; q < static_cast<int32_t>(parent_.size()); ++q) {
    if (parent_[q] >= at) parent_[q] += k;
  }
  for (auto& list : postings_) {
    for (auto it = std::lower_bound(list.begin(), list.end(), at);
         it != list.end(); ++it) {
      *it += k;
    }
  }
  labels_.insert(labels_.begin() + at, f_labels.begin(), f_labels.end());
  parent_.insert(parent_.begin() + at, f_parent.begin(), f_parent.end());
  depth_.insert(depth_.begin() + at, f_depth.begin(), f_depth.end());
  extent_.insert(extent_.begin() + at, f_extent.begin(), f_extent.end());
  text_.insert(text_.begin() + at, f_text.begin(), f_text.end());
  node_of_.insert(node_of_.begin() + at, f_node.begin(), f_node.end());
  for (int32_t rel = 0; rel < k; ++rel) {
    const LabelId l = f_labels[rel];
    if (l >= static_cast<LabelId>(postings_.size())) postings_.resize(l + 1);
    auto& list = postings_[l];
    list.insert(std::lower_bound(list.begin(), list.end(), at + rel),
                at + rel);
  }
  if (static_cast<int32_t>(pos_of_.size()) < tree.size()) {
    pos_of_.resize(tree.size(), -1);
  }
  RefreshPosOf(at);
}

DocPlane DocPlane::Maintainer::Take(const Tree& tree) {
  DocPlane plane;
  plane.labels_ = std::move(labels_);
  plane.parent_ = std::move(parent_);
  plane.depth_ = std::move(depth_);
  plane.extent_ = std::move(extent_);
  plane.node_of_ = std::move(node_of_);
  const int32_t n = plane.size();
  plane.text_bits_.assign((n + 63) / 64, 0);
  for (int32_t pos = 0; pos < n; ++pos) {
    if (text_[pos]) plane.text_bits_[pos >> 6] |= uint64_t{1} << (pos & 63);
  }
  plane.Seal(tree, &postings_);
  return plane;
}

size_t DocPlane::MemoryBytes() const {
  return labels_.size() * sizeof(LabelId) +
         parent_.size() * sizeof(int32_t) + depth_.size() * sizeof(int32_t) +
         extent_.size() * sizeof(int32_t) +
         text_bits_.size() * sizeof(uint64_t) +
         node_of_.size() * sizeof(NodeId) + pos_of_.size() * sizeof(int32_t) +
         posting_pool_.size() * sizeof(int32_t) +
         posting_ref_.size() * sizeof(std::pair<int32_t, int32_t>);
}

}  // namespace smoqe::xml

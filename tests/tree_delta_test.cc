// xml::TreeDelta and the incremental DocPlane maintainer.
//
// Three property families:
//  * Edit primitives and Fragment round-trips: detach/insert/relabel keep
//    the tree's reachable-node accounting and sibling numbering exact, and
//    Capture -> Instantiate reproduces a subtree structurally.
//  * Validation: ApplyTo rejects ops whose target is not a reachable
//    element, deleting the root, and fragments that are not element-rooted
//    trees (nothing may sit under a text item).
//  * Maintainer ≡ Build: across randomized delta streams (and a 120k-deep
//    spine), the plane patched through DocPlane::Maintainer is
//    BIT-IDENTICAL (DocPlane::SameAs -- labels, parents, depths, extents,
//    text bits, NodeId maps, postings) to a from-scratch DocPlane::Build of
//    the edited tree. This is the property the epoch publisher and the
//    mutation bench stand on.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "xml/doc_plane.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace smoqe::xml {
namespace {

const char* const kLabels[] = {"a", "b", "c", "d", "e"};

// Reachable elements in document order (iterative; excludes tombstones).
std::vector<NodeId> ReachableElements(const Tree& tree) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (tree.is_element(n)) out.push_back(n);
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return out;
}

Tree RandomTree(int num_elements, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tree tree;
  std::vector<NodeId> elements = {tree.AddRoot("a")};
  for (int i = 1; i < num_elements; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(tree.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.2) {
      tree.AddText(elements.back(), coin(rng) < 0.5 ? "alpha" : "beta");
    }
  }
  return tree;
}

Fragment RandomFragment(std::mt19937_64& rng, int max_elements) {
  // Built on a scratch tree so Capture's preorder discipline is exercised.
  Tree scratch;
  std::vector<NodeId> elements = {scratch.AddRoot(kLabels[rng() % 5])};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const int n = 1 + static_cast<int>(rng() % max_elements);
  for (int i = 1; i < n; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(scratch.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.3) scratch.AddText(elements.back(), "gamma");
  }
  return Fragment::Capture(scratch, scratch.root());
}

// A delta of `num_ops` random edits, generated against a scratch copy so
// each op targets a node that is live at its point in the sequence.
TreeDelta RandomDelta(const Tree& tree, uint64_t version, int num_ops,
                      std::mt19937_64& rng) {
  Tree scratch = tree;
  TreeDelta delta(version);
  for (int i = 0; i < num_ops; ++i) {
    std::vector<NodeId> elements = ReachableElements(scratch);
    const int kind = static_cast<int>(rng() % 3);
    if (kind == 0 && elements.size() > 1) {  // delete a non-root subtree
      NodeId victim = elements[1 + rng() % (elements.size() - 1)];
      delta.AddDelete(victim);
      TreeDelta step(0);
      step.AddDelete(victim);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch delete";
    } else if (kind == 1) {  // insert a fragment at a random slot
      NodeId parent = elements[rng() % elements.size()];
      const int32_t slot = static_cast<int32_t>(rng() % 4);  // 0 = append
      Fragment fragment = RandomFragment(rng, 6);
      delta.AddInsert(parent, slot, fragment);
      TreeDelta step(0);
      step.AddInsert(parent, slot, std::move(fragment));
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch insert";
    } else {  // relabel
      NodeId node = elements[rng() % elements.size()];
      const char* label = kLabels[rng() % 5];
      delta.AddRelabel(node, label);
      TreeDelta step(0);
      step.AddRelabel(node, label);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch relabel";
    }
  }
  return delta;
}

TEST(TreeMutationTest, DetachKeepsAccountingAndSiblingOrder) {
  Tree tree;
  NodeId root = tree.AddRoot("a");
  NodeId c1 = tree.AddElement(root, "b");
  NodeId c2 = tree.AddElement(root, "c");
  NodeId c3 = tree.AddElement(root, "d");
  tree.AddText(c2, "t");
  tree.AddElement(c2, "e");
  const int32_t elements_before = tree.CountElements();
  const int32_t texts_before = tree.CountTexts();

  tree.DetachSubtree(c2);
  EXPECT_EQ(tree.CountElements(), elements_before - 2);
  EXPECT_EQ(tree.CountTexts(), texts_before - 1);
  EXPECT_EQ(tree.CountDetached(), 3);
  EXPECT_EQ(tree.first_child(root), c1);
  EXPECT_EQ(tree.next_sibling(c1), c3);
  EXPECT_EQ(tree.child_index(c3), 2);  // renumbered after the detach
  EXPECT_EQ(tree.parent(c2), kNullNode);
}

TEST(TreeMutationTest, InsertBeforeRenumbersAndCounts) {
  Tree tree;
  NodeId root = tree.AddRoot("a");
  NodeId c1 = tree.AddElement(root, "b");
  NodeId c2 = tree.AddElement(root, "c");
  NodeId mid = tree.InsertElementBefore(root, c2, "d");
  EXPECT_EQ(tree.next_sibling(c1), mid);
  EXPECT_EQ(tree.next_sibling(mid), c2);
  EXPECT_EQ(tree.child_index(mid), 2);
  EXPECT_EQ(tree.child_index(c2), 3);
  EXPECT_EQ(tree.CountElements(), 4);
  NodeId tail = tree.InsertElementBefore(root, kNullNode, "e");
  EXPECT_EQ(tree.next_sibling(c2), tail);
  EXPECT_EQ(tree.child_index(tail), 4);
  tree.Relabel(mid, "z");
  EXPECT_EQ(tree.label_name(mid), "z");
  EXPECT_EQ(tree.CountSubtreeElements(root), 5);
}

TEST(TreeDeltaTest, FragmentRoundTrip) {
  Tree source = RandomTree(40, 11);
  std::vector<NodeId> elements = ReachableElements(source);
  for (NodeId n : elements) {
    Fragment fragment = Fragment::Capture(source, n);
    EXPECT_EQ(fragment.CountElements(), source.CountSubtreeElements(n));
    Tree target;
    target.AddRoot("host");
    NodeId copy = fragment.Instantiate(&target, target.root(), 0);
    // The copy must mirror the source subtree; compare via re-capture.
    Fragment again = Fragment::Capture(target, copy);
    ASSERT_EQ(again.items.size(), fragment.items.size());
    for (size_t i = 0; i < fragment.items.size(); ++i) {
      EXPECT_EQ(again.items[i].is_text, fragment.items[i].is_text);
      EXPECT_EQ(again.items[i].parent, fragment.items[i].parent);
      EXPECT_EQ(again.items[i].value, fragment.items[i].value);
    }
  }
}

TEST(TreeDeltaTest, ApplyRejectsBadTargets) {
  Tree tree = RandomTree(10, 3);
  {
    TreeDelta delta(0);
    delta.AddDelete(tree.root());
    EXPECT_FALSE(delta.ApplyTo(&tree).ok());
  }
  {
    TreeDelta delta(0);
    delta.AddRelabel(tree.size() + 5, "z");
    EXPECT_FALSE(delta.ApplyTo(&tree).ok());
  }
  {
    // A detached node is not a valid target.
    Tree t2 = RandomTree(10, 4);
    std::vector<NodeId> elements = ReachableElements(t2);
    NodeId victim = elements.back();
    t2.DetachSubtree(victim);
    TreeDelta delta(0);
    delta.AddRelabel(victim, "z");
    EXPECT_FALSE(delta.ApplyTo(&t2).ok());
  }
  {
    // [x, text under x, y under text]: an item under a text item would
    // leave a text node with a child, which no snapshot may hold. The wire
    // form carries it (its parent links are in preorder), so ApplyTo is
    // where it must stop.
    Fragment fragment;
    fragment.items = {{false, -1, "x"}, {true, 0, "t"}, {false, 1, "y"}};
    TreeDelta delta(0);
    delta.AddInsert(tree.root(), 0, std::move(fragment));
    std::string wire;
    delta.Serialize(&wire);
    auto decoded = TreeDelta::Deserialize(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    const int32_t elements = tree.CountElements();
    EXPECT_FALSE(decoded.value().ApplyTo(&tree).ok());
    EXPECT_EQ(tree.CountElements(), elements);
  }
}

TEST(TreeDeltaTest, MaintainerMatchesBuildOnRandomStreams) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 15; ++round) {
    Tree tree = RandomTree(80, 300 + round);
    DocPlane plane = DocPlane::Build(tree);
    uint64_t version = 0;
    for (int step = 0; step < 8; ++step) {
      TreeDelta delta = RandomDelta(tree, version, 1 + step % 3, rng);
      DocPlane::Maintainer maintainer(plane);
      ASSERT_TRUE(delta.ApplyTo(&tree, &maintainer).ok())
          << "round " << round << " step " << step;
      plane = maintainer.Take(tree);
      DocPlane fresh = DocPlane::Build(tree);
      ASSERT_TRUE(plane.SameAs(fresh))
          << "maintained plane diverged from Build, round " << round
          << " step " << step;
      version = delta.to_version();
    }
  }
}

TEST(TreeDeltaTest, MaintainerMatchesBuildOnDeepSpine) {
  // A 120k-deep spine: every walk in the delta/maintainer path must be
  // iterative, and ancestor-extent patching touches the whole chain.
  constexpr int kDepth = 120000;
  Tree tree;
  NodeId n = tree.AddRoot("a");
  for (int i = 1; i < kDepth; ++i) {
    n = tree.AddElement(n, kLabels[i % 3]);
  }
  const NodeId bottom = n;
  tree.AddText(bottom, "leaf");
  DocPlane plane = DocPlane::Build(tree);

  // Insert near the bottom and relabel mid-spine; then relabel back and
  // delete the insert.
  const NodeId inserted = tree.size();  // the insert's root takes the next id
  const std::string old_label = tree.label_name(kDepth / 2);
  TreeDelta grow(0);
  {
    Tree scratch;
    scratch.AddRoot("d");
    scratch.AddElement(scratch.root(), "e");
    grow.AddInsert(bottom, 0, Fragment::Capture(scratch, scratch.root()));
  }
  grow.AddRelabel(kDepth / 2, "b");
  DocPlane::Maintainer maintainer(plane);
  ASSERT_TRUE(grow.ApplyTo(&tree, &maintainer).ok());
  plane = maintainer.Take(tree);
  ASSERT_TRUE(plane.SameAs(DocPlane::Build(tree)));

  TreeDelta shrink(1);
  shrink.AddRelabel(kDepth / 2, old_label);
  shrink.AddDelete(inserted);
  DocPlane::Maintainer undo(plane);
  ASSERT_TRUE(shrink.ApplyTo(&tree, &undo).ok());
  plane = undo.Take(tree);
  ASSERT_TRUE(plane.SameAs(DocPlane::Build(tree)));
  EXPECT_EQ(plane.size(), kDepth);
}

}  // namespace
}  // namespace smoqe::xml

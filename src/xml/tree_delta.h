// TreeDelta: the versioned, forward-only edit unit for mutable documents.
//
// DESIGN NOTE (diff discipline for a world that was built frozen)
// ---------------------------------------------------------------
// Everything downstream of xml::Tree -- the columnar DocPlane, the shared
// TransitionPlane, the sharded evaluators -- was designed against a frozen
// document. Mutability therefore does NOT arrive as "call Relabel whenever
// you like": it arrives as a diff discipline borrowed from Pacemaker's CIB
// (the cluster information base ships every change as a versioned diff that
// peers validate before applying). A TreeDelta is an ordered list of three
// op kinds over one tree:
//
//   insert   a whole Fragment (self-contained serialized subtree) becomes a
//            new child of `target`, at 1-based child slot `before_index`
//            (out-of-range appends). Fragments are captured label/text by
//            VALUE, so a delta is meaningful beyond the tree it was
//            recorded on;
//   delete   the subtree under `target` is detached (ids become tombstones,
//            see the MUTATION note in tree.h);
//   relabel  `target`'s element label changes.
//
// and carries [from_version, to_version): a delta ADMITS against a tree
// whose version equals from_version and nothing else -- the publisher
// (plane_epoch.h) enforces that, exactly like the CIB rejects a patch whose
// base revision does not match.
//
// Two properties make deltas more than a mutation log:
//
//  * DETERMINISTIC IDS. Replaying the same op sequence on an id-for-id
//    identical tree allocates the same arena ids (fresh inserts take
//    contiguous ids at the arena end, one per fragment item in order), so
//    a later delta's id-addressed ops stay valid under replay. Both
//    replays rely on it: the epoch publisher rolls retired tree replicas
//    forward through its delta log, and recovery replays the WAL onto a
//    snapshot's arena.
//  * PLANE-MAINTAINING. ApplyTo threads an optional DocPlane::Maintainer
//    through the op loop, so the columnar plane is patched in lockstep with
//    the tree instead of being rebuilt.
//
// Validation is per-op, immediately before that op applies: targets must be
// reachable elements (never the root for delete), and fragments must be
// trees rooted at an element with nothing under a text item. A failed op
// leaves the tree partially edited -- callers that need all-or-nothing (the
// publisher) apply deltas to a private replica and discard it on error.

#ifndef SMOQE_XML_TREE_DELTA_H_
#define SMOQE_XML_TREE_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::xml {

/// A self-contained serialized subtree: labels and text values by VALUE,
/// structure as preorder parent links. Captured from a live subtree and
/// instantiable into any tree (interning labels as needed).
struct Fragment {
  struct Item {
    bool is_text = false;
    int32_t parent = -1;       // index of the parent Item; -1 for the root
    std::string value;         // element label, or text content
  };
  std::vector<Item> items;     // preorder; items[0] is the (element) root

  /// Serializes the subtree under `root` (must be an element). Iterative;
  /// safe on 100k-deep spines.
  static Fragment Capture(const Tree& tree, NodeId root);

  /// Materializes the fragment as a child of `parent`, occupying 1-based
  /// child slot `before_index` (out-of-range = append). Returns the new
  /// root's id; ids are allocated in preorder, deterministically.
  NodeId Instantiate(Tree* tree, NodeId parent, int32_t before_index) const;

  int32_t CountElements() const;
  bool empty() const { return items.empty(); }
};

enum class DeltaOpKind : uint8_t { kInsert, kDelete, kRelabel };

struct DeltaOp {
  DeltaOpKind kind = DeltaOpKind::kRelabel;
  NodeId target = kNullNode;   // insert: the parent; delete: the victim;
                               // relabel: the node
  int32_t before_index = 0;    // insert only: 1-based child slot; 0 appends
  std::string label;           // relabel only: the new label
  Fragment fragment;           // insert only: the subtree to add
};

class TreeDelta {
 public:
  TreeDelta() = default;
  explicit TreeDelta(uint64_t from_version)
      : from_version_(from_version), to_version_(from_version + 1) {}

  void AddInsert(NodeId parent, int32_t before_index, Fragment fragment);
  void AddDelete(NodeId victim);
  void AddRelabel(NodeId node, std::string_view label);

  uint64_t from_version() const { return from_version_; }
  uint64_t to_version() const { return to_version_; }
  const std::vector<DeltaOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Applies every op in order, optionally patching `maintainer` in
  /// lockstep. Per-op validation; on error the tree is partially edited
  /// (see the design note).
  Status ApplyTo(Tree* tree, DocPlane::Maintainer* maintainer = nullptr) const;

  /// Appends the binary wire form (the WAL record payload -- see
  /// storage/wal.h): versions, then each op with its fragment,
  /// little-endian with length-prefixed strings (common/codec.h).
  void Serialize(std::string* out) const;

  /// Decodes a Serialize'd delta. Memory-safe on ANY input: corrupt bytes
  /// (truncation, bit flips) yield a Status error, never UB -- the
  /// corruption-fuzz suite drives this directly. Semantic validation
  /// against a concrete tree stays in ApplyTo.
  static StatusOr<TreeDelta> Deserialize(std::string_view bytes);

 private:
  uint64_t from_version_ = 0;
  uint64_t to_version_ = 1;
  std::vector<DeltaOp> ops_;
};

/// Shape equality ignoring NodeIds and tombstoned (detached) slots: same
/// kinds, label NAMES, text values, and sibling order. Iterative.
bool StructurallyEqual(const Tree& a, const Tree& b);

}  // namespace smoqe::xml

#endif  // SMOQE_XML_TREE_DELTA_H_

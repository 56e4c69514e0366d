// View materialization: computes σ(T) and the provenance binding.
//
// Materialization proceeds top-down (Example 2.2): the view root is a copy of
// the source root; an A-element bound to source node s gets its children by
// evaluating σ(A, B) at s for every child type B of A's production, honoring
// the production's shape:
//   str       : the view element carries a copy of s's text
//   epsilon   : no children
//   sequence  : each starred child type contributes all matches in document
//               order, each unstarred type must match exactly one node
//   disjunct  : exactly one branch may contribute (an empty result matches a
//               starred branch); anything else is an invalid view instance
//
// Every view node is a copy of a source node; `binding` records which one.
// The paper's equivalence Q(σ(T)) = Q'(T) compares view answers through this
// binding.

#ifndef SMOQE_VIEW_MATERIALIZER_H_
#define SMOQE_VIEW_MATERIALIZER_H_

#include <vector>

#include "common/status.h"
#include "view/view_def.h"
#include "xml/tree.h"

namespace smoqe::view {

struct MaterializeOptions {
  /// Abort (with FailedPrecondition) past this view depth; recursive views
  /// whose annotations do not descend in the source never terminate, and this
  /// guard turns that into an error. The (A-type, source-node) repetition
  /// check below catches the common cases before the guard trips.
  int max_depth = 4096;
};

struct MaterializedView {
  xml::Tree tree;                      // σ(T)
  std::vector<xml::NodeId> binding;    // view node -> source node (text: null)
};

StatusOr<MaterializedView> Materialize(const ViewDef& view,
                                       const xml::Tree& source,
                                       const MaterializeOptions& opts = {});

/// Maps a set of view nodes through the binding (sorted source ids, deduped).
std::vector<xml::NodeId> MapToSource(const MaterializedView& mat,
                                     const std::vector<xml::NodeId>& view_nodes);

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_MATERIALIZER_H_

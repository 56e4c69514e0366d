// "GALAX substitute": evaluates regular XPath the way an XQuery engine runs
// the standard translation of Xreg into recursive XQuery functions (the
// comparison SMOQE's Section 7 ran against GALAX; see "Paper experiments"
// in BUILDING.md).
//
// The translation turns Q* into a recursive function F(S) = S union
// F(body(S)) evaluated over fully materialized sequences: every round
// re-applies the body to the *entire* accumulated set (no delta/frontier
// optimization -- engines executing the translation have no idea it computes
// a closure), and filters are re-evaluated per candidate with no sharing.
// That cost profile, not a flaw in GALAX, is why the paper reports the
// translation "required considerably more time".

#ifndef SMOQE_EVAL_GALAX_SUBSTITUTE_H_
#define SMOQE_EVAL_GALAX_SUBSTITUTE_H_

#include "eval/naive_evaluator.h"
#include "xml/tree.h"
#include "xpath/ast.h"

namespace smoqe::eval {

class GalaxSubstitute {
 public:
  explicit GalaxSubstitute(const xml::Tree& tree) : tree_(tree) {}

  /// Evaluates any Xreg query (this engine's one advantage over XPath-only
  /// baselines -- matching GALAX, which could run the translation).
  NodeSet Eval(const xpath::PathPtr& query, xml::NodeId context) const;

 private:
  NodeSet Apply(const xpath::PathPtr& query, const NodeSet& contexts) const;
  bool Filter(const xpath::FilterPtr& filter, xml::NodeId node) const;

  const xml::Tree& tree_;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_GALAX_SUBSTITUTE_H_

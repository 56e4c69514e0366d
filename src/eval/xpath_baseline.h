// "JAXP substitute": a conventional interpretive XPath engine, standing in
// for JAXP RI (Xerces + Xalan) in the Fig. 8 experiments (see "Paper
// experiments" in BUILDING.md for the substitutions).
//
// It evaluates queries of the XPath fragment X the way interpretive engines
// do: one step at a time over materialized context lists (sorted and
// deduplicated per step), '//' by collecting whole subtrees, and every filter
// re-evaluated from scratch at every candidate node. No automata, no
// pruning, no sharing across filter evaluations.

#ifndef SMOQE_EVAL_XPATH_BASELINE_H_
#define SMOQE_EVAL_XPATH_BASELINE_H_

#include "common/status.h"
#include "eval/naive_evaluator.h"
#include "xml/tree.h"
#include "xpath/ast.h"

namespace smoqe::eval {

class XPathBaseline {
 public:
  explicit XPathBaseline(const xml::Tree& tree) : tree_(tree) {}

  /// Evaluates an X query (general Kleene stars are rejected with
  /// InvalidArgument -- Xalan cannot run regular XPath either, which is the
  /// point of Fig. 9 using HyPE variants only).
  StatusOr<NodeSet> Eval(const xpath::PathPtr& query, xml::NodeId context) const;

 private:
  NodeSet Step(const xpath::PathPtr& query, const NodeSet& contexts) const;
  bool Filter(const xpath::FilterPtr& filter, xml::NodeId node) const;

  const xml::Tree& tree_;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_XPATH_BASELINE_H_

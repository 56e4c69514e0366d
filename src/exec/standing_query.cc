#include "exec/standing_query.h"

#include <algorithm>
#include <utility>

#include "hype/batch_hype.h"

namespace smoqe::exec {

namespace {

using xml::kNullNode;
using xml::NodeId;
using xml::Tree;

bool IsReachableElement(const Tree& tree, NodeId id) {
  if (id < 0 || id >= tree.size() || !tree.is_element(id)) return false;
  NodeId n = id;
  while (tree.parent(n) != kNullNode) n = tree.parent(n);
  return n == tree.root();
}

int32_t DepthOf(const Tree& tree, NodeId id) {
  int32_t d = 0;
  for (NodeId n = id; tree.parent(n) != kNullNode; n = tree.parent(n)) ++d;
  return d;
}

NodeId Lca(const Tree& tree, NodeId a, NodeId b) {
  int32_t da = DepthOf(tree, a);
  int32_t db = DepthOf(tree, b);
  while (da > db) {
    a = tree.parent(a);
    --da;
  }
  while (db > da) {
    b = tree.parent(b);
    --db;
  }
  while (a != b) {
    a = tree.parent(a);
    b = tree.parent(b);
  }
  return a;
}

/// The op's region root, resolved against the PRE-edit tree. Ops that
/// address a node the pre-edit tree cannot see (a target created earlier in
/// the same delta) anchor at the root -- the splice then degenerates to a
/// full pass, trading speed for unconditional soundness.
NodeId AnchorOnOldTree(const Tree& old_tree, const xml::DeltaOp& op) {
  if (IsReachableElement(old_tree, op.target)) {
    if (op.kind == xml::DeltaOpKind::kInsert) return op.target;
    const NodeId p = old_tree.parent(op.target);
    return p == kNullNode ? op.target : p;
  }
  return old_tree.root();
}

}  // namespace

StandingQueryEvaluator::StandingQueryEvaluator(
    xml::PlaneEpoch base, std::vector<const automata::Mfa*> mfas)
    : mfas_(std::move(mfas)),
      binding_(base),
      epoch_(std::move(base)) {
  store_ = std::make_unique<hype::TransitionPlaneStore>(*binding_.tree,
                                                        nullptr);
  answers_.assign(mfas_.size(), {});
  std::vector<uint32_t> all(mfas_.size());
  for (uint32_t q = 0; q < mfas_.size(); ++q) all[q] = q;
  int64_t interned = 0;
  FullEval(epoch_, all, &interned, nullptr, nullptr);
}

bool StandingQueryEvaluator::FullEval(
    const xml::PlaneEpoch& epoch, const std::vector<uint32_t>& queries,
    int64_t* interned, EvalGate* gate,
    std::vector<std::pair<uint32_t, std::vector<NodeId>>>* staged) {
  if (queries.empty()) return true;
  std::vector<const automata::Mfa*> subset;
  subset.reserve(queries.size());
  for (uint32_t q : queries) subset.push_back(mfas_[q]);
  hype::BatchHypeOptions batch_options;
  batch_options.plane = epoch.plane.get();
  batch_options.plane_store = store_.get();
  hype::BatchHypeEvaluator eval(*epoch.tree, std::move(subset),
                                batch_options);
  std::vector<std::vector<NodeId>> results =
      eval.EvalAll(epoch.tree->root(), gate);
  if (gate != nullptr && gate->tripped()) return false;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (staged != nullptr) {
      staged->emplace_back(queries[i], std::move(results[i]));
    } else {
      answers_[queries[i]] = std::move(results[i]);
    }
    *interned += eval.stats(i).configs_interned;
  }
  return true;
}

void StandingQueryEvaluator::Rebind(const xml::PlaneEpoch& epoch) {
  binding_ = epoch;
  store_ = std::make_unique<hype::TransitionPlaneStore>(*binding_.tree,
                                                        nullptr);
}

Status StandingQueryEvaluator::Advance(const xml::PlaneEpoch& next,
                                       const xml::TreeDelta& delta,
                                       AdvanceStats* stats,
                                       const EvalControl& control) {
  AdvanceStats local;
  AdvanceStats* out = stats ? stats : &local;
  *out = AdvanceStats{};
  EvalGate gate(&control);
  EvalGate* gp = control.enabled() ? &gate : nullptr;
  if (gp != nullptr && !gate.Refresh()) return gate.status();
  // Answer updates are STAGED and committed only once every pass below has
  // finished: an aborted Advance leaves answers_ and epoch_ untouched at
  // the previous epoch, so the caller can simply retry it.
  std::vector<std::pair<uint32_t, std::vector<NodeId>>> staged;
  if (delta.from_version() != epoch_.version ||
      next.version != delta.to_version()) {
    return Status::FailedPrecondition(
        "Advance: delta [" + std::to_string(delta.from_version()) + " -> " +
        std::to_string(delta.to_version()) + ") does not connect epoch " +
        std::to_string(epoch_.version) + " to epoch " +
        std::to_string(next.version));
  }
  if (delta.empty()) {
    epoch_ = next;
    return Status::OK();
  }

  // Label growth invalidates the planes' label binding: rebind and pay one
  // cold pass for everything.
  if (next.tree->labels().size() != binding_.tree->labels().size()) {
    // An abort below leaves the store rebound to `next` but answers_ and
    // epoch_ at the previous epoch -- sound (the bigger label universe
    // covers both trees, transitions are label-driven either way), and the
    // retried Advance then takes the warm normal path.
    Rebind(next);
    std::vector<uint32_t> all(mfas_.size());
    for (uint32_t q = 0; q < mfas_.size(); ++q) all[q] = q;
    if (!FullEval(next, all, &out->configs_interned, gp, &staged)) {
      return gate.status();
    }
    for (auto& [q, ans] : staged) answers_[q] = std::move(ans);
    out->queries_full = static_cast<int64_t>(mfas_.size());
    out->rebound = true;
    epoch_ = next;
    return Status::OK();
  }

  // Fold the per-op regions to one subtree root T on the pre-edit tree
  // (see the design note for why T survives the delta).
  const Tree& old_tree = *epoch_.tree;
  NodeId region = kNullNode;
  for (const xml::DeltaOp& op : delta.ops()) {
    const NodeId anchor = AnchorOnOldTree(old_tree, op);
    region = region == kNullNode ? anchor : Lca(old_tree, region, anchor);
  }
  const int32_t old_pos = epoch_.plane->pos_of(region);
  const int32_t old_end = epoch_.plane->end_of(old_pos);

  // The root -> T chain on the NEW tree (labels there are unchanged, so
  // the memoized transitions replay warm).
  const Tree& new_tree = *next.tree;
  std::vector<NodeId> chain;
  for (NodeId n = region; n != kNullNode; n = new_tree.parent(n)) {
    chain.push_back(n);
  }
  std::reverse(chain.begin(), chain.end());

  // Classify every query by probing its configuration chain.
  std::vector<uint32_t> spliced;
  std::vector<uint32_t> full;
  for (uint32_t q = 0; q < mfas_.size(); ++q) {
    const std::shared_ptr<hype::TransitionPlane> plane = store_->For(mfas_[q]);
    int64_t interned = 0;
    int32_t config = plane->ContextConfig(new_tree.root(), &interned);
    bool dead = config < 0;
    bool simple_above = true;
    for (size_t j = 1; !dead && j < chain.size(); ++j) {
      if (!plane->config(config).IsSimple()) {
        simple_above = false;
        break;
      }
      const hype::SuccRef succ =
          plane->Transition(config, new_tree.label(chain[j]), 0, &interned);
      config = succ.config;
      dead = plane->config(config).dead;
    }
    out->configs_interned += interned;
    if (dead) {
      // The query never reaches the edited subtree; with identical labels
      // along the chain its old pass died at the same node, so the answer
      // set cannot have changed.
      ++out->queries_skipped;
    } else if (!simple_above) {
      full.push_back(q);
      ++out->queries_full;
    } else {
      spliced.push_back(q);
      ++out->queries_spliced;
    }
  }

  if (!FullEval(next, full, &out->configs_interned, gp, &staged)) {
    return gate.status();
  }

  if (!spliced.empty()) {
    std::vector<const automata::Mfa*> subset;
    subset.reserve(spliced.size());
    for (uint32_t q : spliced) subset.push_back(mfas_[q]);
    hype::BatchHypeOptions batch_options;
    batch_options.plane = next.plane.get();
    batch_options.plane_store = store_.get();
    hype::BatchHypeEvaluator eval(new_tree, std::move(subset), batch_options);
    std::vector<std::vector<NodeId>> inside =
        eval.EvalSubtree(new_tree.root(), region, gp);
    if (gp != nullptr && gate.tripped()) return gate.status();
    for (size_t i = 0; i < spliced.size(); ++i) {
      const uint32_t q = spliced[i];
      out->configs_interned += eval.stats(i).configs_interned;
      // Outside survivors: answers whose pre-edit position lay outside T's
      // pre-edit extent. Surviving nodes never cross the boundary and the
      // chain configurations are unchanged, so this set is exact.
      std::vector<NodeId> merged;
      merged.reserve(answers_[q].size() + inside[i].size());
      for (NodeId id : answers_[q]) {
        const int32_t p = epoch_.plane->pos_of(id);
        if (p < old_pos || p >= old_end) merged.push_back(id);
      }
      // Both halves are sorted and disjoint (inside[i] lies in T's new
      // subtree; kept ids lie outside it in both epochs).
      std::vector<NodeId> result(merged.size() + inside[i].size());
      std::merge(merged.begin(), merged.end(), inside[i].begin(),
                 inside[i].end(), result.begin());
      staged.emplace_back(q, std::move(result));
    }
  }

  for (auto& [q, ans] : staged) answers_[q] = std::move(ans);
  epoch_ = next;
  return Status::OK();
}

}  // namespace smoqe::exec

#include "view/materializer.h"

#include <algorithm>
#include <unordered_set>

#include "eval/naive_evaluator.h"

namespace smoqe::view {

namespace {

class Builder {
 public:
  Builder(const ViewDef& view, const xml::Tree& source,
          const MaterializeOptions& opts)
      : view_(view), source_(source), opts_(opts), eval_(source) {}

  StatusOr<MaterializedView> Run() {
    dtd::TypeId root_type = view_.view_dtd().root();
    xml::NodeId view_root = out_.tree.AddRoot(view_.view_dtd().type_name(root_type));
    out_.binding.push_back(source_.root());
    SMOQE_RETURN_IF_ERROR(Fill(root_type, source_.root(), view_root, 1));
    return std::move(out_);
  }

 private:
  Status Err(dtd::TypeId type, xml::NodeId src, std::string what) {
    return Status::FailedPrecondition(
        "materialize: at view type '" + view_.view_dtd().type_name(type) +
        "' (source node " + std::to_string(src) + "): " + what);
  }

  xml::NodeId AddChild(xml::NodeId parent, dtd::TypeId type, xml::NodeId src) {
    xml::NodeId v = out_.tree.AddElement(parent, view_.view_dtd().type_name(type));
    out_.binding.push_back(src);
    return v;
  }

  Status Fill(dtd::TypeId type, xml::NodeId src, xml::NodeId self, int depth) {
    if (depth > opts_.max_depth) {
      return Err(type, src, "view depth limit exceeded (non-terminating view?)");
    }
    uint64_t key = (static_cast<uint64_t>(type) << 32) |
                   static_cast<uint32_t>(src);
    if (!on_path_.insert(key).second) {
      return Err(type, src,
                 "view definition revisits the same (type, source node) pair; "
                 "materialization would not terminate");
    }
    Status status = FillChildren(type, src, self, depth);
    on_path_.erase(key);
    return status;
  }

  Status FillChildren(dtd::TypeId type, xml::NodeId src, xml::NodeId self,
                      int depth) {
    const dtd::Production& prod = view_.view_dtd().production(type);
    switch (prod.kind) {
      case dtd::ContentKind::kText: {
        std::string text = source_.TextOf(src);
        if (!text.empty()) {
          out_.tree.AddText(self, text);
          out_.binding.push_back(xml::kNullNode);
        }
        return Status::OK();
      }
      case dtd::ContentKind::kEmpty:
        return Status::OK();
      case dtd::ContentKind::kSequence: {
        for (const dtd::ChildSpec& spec : prod.children) {
          const xpath::PathPtr* q = view_.annotation(type, spec.type);
          if (q == nullptr) {
            return Err(type, src, "missing annotation for child '" +
                                      view_.view_dtd().type_name(spec.type) + "'");
          }
          eval::NodeSet matches = eval_.Eval(*q, src);
          if (!spec.starred && matches.size() != 1) {
            return Err(type, src,
                       "unstarred child '" +
                           view_.view_dtd().type_name(spec.type) + "' matched " +
                           std::to_string(matches.size()) + " source nodes");
          }
          for (xml::NodeId m : matches) {
            xml::NodeId child = AddChild(self, spec.type, m);
            SMOQE_RETURN_IF_ERROR(Fill(spec.type, m, child, depth + 1));
          }
        }
        return Status::OK();
      }
      case dtd::ContentKind::kChoice: {
        int chosen = -1;
        eval::NodeSet chosen_matches;
        bool has_starred = false;
        for (size_t i = 0; i < prod.children.size(); ++i) {
          const dtd::ChildSpec& spec = prod.children[i];
          has_starred = has_starred || spec.starred;
          const xpath::PathPtr* q = view_.annotation(type, spec.type);
          if (q == nullptr) {
            return Err(type, src, "missing annotation for child '" +
                                      view_.view_dtd().type_name(spec.type) + "'");
          }
          eval::NodeSet matches = eval_.Eval(*q, src);
          if (matches.empty()) continue;
          if (chosen != -1) {
            return Err(type, src, "ambiguous disjunction: branches '" +
                                      view_.view_dtd().type_name(
                                          prod.children[chosen].type) +
                                      "' and '" +
                                      view_.view_dtd().type_name(spec.type) +
                                      "' both matched");
          }
          if (!spec.starred && matches.size() != 1) {
            return Err(type, src,
                       "unstarred branch '" +
                           view_.view_dtd().type_name(spec.type) + "' matched " +
                           std::to_string(matches.size()) + " source nodes");
          }
          chosen = static_cast<int>(i);
          chosen_matches = std::move(matches);
        }
        if (chosen == -1) {
          if (has_starred) return Status::OK();  // empty starred branch
          return Err(type, src, "no branch of the disjunction matched");
        }
        const dtd::ChildSpec& spec = prod.children[chosen];
        for (xml::NodeId m : chosen_matches) {
          xml::NodeId child = AddChild(self, spec.type, m);
          SMOQE_RETURN_IF_ERROR(Fill(spec.type, m, child, depth + 1));
        }
        return Status::OK();
      }
    }
    return Status::Internal("unreachable production kind");
  }

  const ViewDef& view_;
  const xml::Tree& source_;
  const MaterializeOptions& opts_;
  eval::NaiveEvaluator eval_;
  MaterializedView out_;
  std::unordered_set<uint64_t> on_path_;
};

}  // namespace

StatusOr<MaterializedView> Materialize(const ViewDef& view,
                                       const xml::Tree& source,
                                       const MaterializeOptions& opts) {
  SMOQE_RETURN_IF_ERROR(view.Validate());
  if (source.empty()) return Status::InvalidArgument("empty source document");
  return Builder(view, source, opts).Run();
}

std::vector<xml::NodeId> MapToSource(
    const MaterializedView& mat, const std::vector<xml::NodeId>& view_nodes) {
  std::vector<xml::NodeId> out;
  out.reserve(view_nodes.size());
  for (xml::NodeId v : view_nodes) {
    if (mat.binding[v] != xml::kNullNode) out.push_back(mat.binding[v]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace smoqe::view

#include "view/view_parser.h"

#include <string>

#include "common/spec_reader.h"
#include "dtd/dtd_parser.h"
#include "xpath/parser.h"

namespace smoqe::view {

StatusOr<ViewDef> ParseView(std::string_view spec) {
  common::SpecReader in(spec, "view");
  SMOQE_RETURN_IF_ERROR(in.Expect("view"));
  SMOQE_RETURN_IF_ERROR(in.Name().status());
  SMOQE_RETURN_IF_ERROR(in.Expect("{"));
  SMOQE_RETURN_IF_ERROR(in.Expect("source"));
  SMOQE_ASSIGN_OR_RETURN(dtd::Dtd source_dtd, dtd::ParseDtd(in));
  SMOQE_RETURN_IF_ERROR(in.Expect("view"));
  SMOQE_ASSIGN_OR_RETURN(dtd::Dtd view_dtd, dtd::ParseDtd(in));
  ViewDef def(std::move(source_dtd), std::move(view_dtd));

  SMOQE_RETURN_IF_ERROR(in.Expect("sigma"));
  SMOQE_RETURN_IF_ERROR(in.Expect("{"));
  while (!in.Accept("}")) {
    SMOQE_ASSIGN_OR_RETURN(std::string a, in.Name());
    SMOQE_RETURN_IF_ERROR(in.Expect("."));
    SMOQE_ASSIGN_OR_RETURN(std::string b, in.Name());
    SMOQE_RETURN_IF_ERROR(in.Expect("="));
    SMOQE_ASSIGN_OR_RETURN(std::string query_text, in.Quoted("query"));
    SMOQE_RETURN_IF_ERROR(in.Expect(";"));
    StatusOr<xpath::PathPtr> q = xpath::ParseQuery(query_text);
    if (!q.ok()) return in.Error(q.status().message());
    Status set = def.SetAnnotation(a, b, q.take());
    if (!set.ok()) return in.Error(set.message());
  }
  SMOQE_RETURN_IF_ERROR(in.Expect("}"));
  if (!in.AtEnd()) return in.Error("trailing input after view spec");
  SMOQE_RETURN_IF_ERROR(def.Validate());
  return def;
}

}  // namespace smoqe::view

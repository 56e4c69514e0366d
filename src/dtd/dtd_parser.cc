#include "dtd/dtd_parser.h"

#include <string>

namespace smoqe::dtd {

namespace {

using common::SpecReader;

StatusOr<ChildSpec> ParseChild(SpecReader& in, Dtd* dtd) {
  SMOQE_ASSIGN_OR_RETURN(std::string name, in.Name("a type name"));
  const TypeId type = dtd->DeclareType(name);
  return ChildSpec{type, in.Accept("*")};
}

Status ParseProduction(SpecReader& in, Dtd* dtd) {
  SMOQE_ASSIGN_OR_RETURN(std::string lhs, in.Name("a type name"));
  const TypeId t = dtd->DeclareType(lhs);
  SMOQE_RETURN_IF_ERROR(in.Expect("->"));
  Production p;
  if (in.Accept("#text")) {
    p.kind = ContentKind::kText;
  } else if (in.Accept("#empty")) {
    p.kind = ContentKind::kEmpty;
  } else {
    SMOQE_ASSIGN_OR_RETURN(ChildSpec first, ParseChild(in, dtd));
    p.children.push_back(first);
    p.kind = in.At("+") ? ContentKind::kChoice : ContentKind::kSequence;
    while (in.Accept(p.kind == ContentKind::kChoice ? "+" : ",")) {
      SMOQE_ASSIGN_OR_RETURN(ChildSpec c, ParseChild(in, dtd));
      p.children.push_back(c);
    }
    if (in.At("+")) return in.Error("cannot mix ',' and '+' in a production");
  }
  SMOQE_RETURN_IF_ERROR(in.Expect(";"));
  Status set = dtd->SetProduction(t, std::move(p));
  if (!set.ok()) return in.Error(set.message());
  return Status::OK();
}

StatusOr<Dtd> ParseBlock(SpecReader& in) {
  Dtd dtd;
  SMOQE_RETURN_IF_ERROR(in.Expect("dtd"));
  SMOQE_ASSIGN_OR_RETURN(std::string root, in.Name("a type name"));
  dtd.SetRoot(dtd.DeclareType(root));
  SMOQE_RETURN_IF_ERROR(in.Expect("{"));
  while (!in.Accept("}")) {
    SMOQE_RETURN_IF_ERROR(ParseProduction(in, &dtd));
  }
  SMOQE_RETURN_IF_ERROR(dtd.Validate());
  return dtd;
}

}  // namespace

StatusOr<Dtd> ParseDtd(SpecReader& in) {
  const std::string_view outer = in.SwitchLanguage("DTD");
  StatusOr<Dtd> dtd = ParseBlock(in);
  in.SwitchLanguage(outer);
  return dtd;
}

StatusOr<Dtd> ParseDtd(std::string_view input) {
  SpecReader in(input, "DTD");
  SMOQE_ASSIGN_OR_RETURN(Dtd dtd, ParseDtd(in));
  if (!in.AtEnd()) return in.Error("trailing input after '}'");
  return dtd;
}

}  // namespace smoqe::dtd

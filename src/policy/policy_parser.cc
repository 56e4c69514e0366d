#include "policy/policy_parser.h"

#include <string>
#include <utility>
#include <vector>

#include "common/spec_reader.h"
#include "dtd/dtd_parser.h"

namespace smoqe::policy {

namespace {

using common::SpecReader;

// Reads one `role NAME [extends P, ...] { rule* }` after its `role`.
Status ParseRole(SpecReader& in, Policy* policy) {
  SMOQE_ASSIGN_OR_RETURN(std::string role_name, in.Name());
  std::vector<std::string> parents;
  if (in.Accept("extends")) {
    do {
      SMOQE_ASSIGN_OR_RETURN(std::string parent, in.Name());
      parents.push_back(std::move(parent));
    } while (in.Accept(","));
  }
  StatusOr<RoleId> role = policy->AddRole(role_name, parents);
  if (!role.ok()) return in.Error(role.status().message());
  SMOQE_RETURN_IF_ERROR(in.Expect("{"));
  while (!in.Accept("}")) {
    SMOQE_ASSIGN_OR_RETURN(std::string verb, in.Name());
    if (verb == "root") {
      SMOQE_ASSIGN_OR_RETURN(std::string which, in.Name());
      if (which != "allow" && which != "deny") {
        return in.Error("expected 'root allow ;' or 'root deny ;'");
      }
      Annotation ann =
          which == "deny" ? Annotation::Deny() : Annotation::Allow();
      Status set = policy->AnnotateRoot(role.value(), std::move(ann));
      if (!set.ok()) return in.Error(set.message());
      SMOQE_RETURN_IF_ERROR(in.Expect(";"));
      continue;
    }
    if (verb != "allow" && verb != "deny") {
      return in.Error("expected 'allow', 'deny' or 'root', got '" + verb + "'");
    }
    SMOQE_ASSIGN_OR_RETURN(std::string a, in.Name());
    SMOQE_RETURN_IF_ERROR(in.Expect("."));
    SMOQE_ASSIGN_OR_RETURN(std::string b, in.Name());
    Annotation ann = verb == "deny" ? Annotation::Deny() : Annotation::Allow();
    if (in.Accept("when")) {
      if (verb == "deny") {
        return in.Error(
            "'deny ... when' is not a thing; negate the condition on an allow");
      }
      SMOQE_ASSIGN_OR_RETURN(std::string cond, in.Quoted("condition"));
      StatusOr<Annotation> parsed = Annotation::If(cond);
      if (!parsed.ok()) return in.Error(parsed.status().message());
      ann = parsed.take();
    }
    Status set = policy->Annotate(role.value(), a, b, std::move(ann));
    if (!set.ok()) return in.Error(set.message());
    SMOQE_RETURN_IF_ERROR(in.Expect(";"));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Policy> ParsePolicy(std::string_view spec) {
  SpecReader in(spec, "policy");
  SMOQE_RETURN_IF_ERROR(in.Expect("policy"));
  SMOQE_RETURN_IF_ERROR(in.Name().status());
  SMOQE_RETURN_IF_ERROR(in.Expect("{"));
  SMOQE_RETURN_IF_ERROR(in.Expect("source"));
  SMOQE_ASSIGN_OR_RETURN(dtd::Dtd source_dtd, dtd::ParseDtd(in));
  Policy policy(std::move(source_dtd));
  while (in.Accept("role")) {
    SMOQE_RETURN_IF_ERROR(ParseRole(in, &policy));
  }
  SMOQE_RETURN_IF_ERROR(in.Expect("}"));
  if (!in.AtEnd()) return in.Error("trailing input after policy spec");
  SMOQE_RETURN_IF_ERROR(policy.Validate());
  return policy;
}

}  // namespace smoqe::policy

// Textual policy format (the policy-file counterpart of view_parser.h):
//
//   policy hospital_acl {
//     source dtd hospital { ... }              // dtd_parser format
//     role staff { }
//     role research extends staff {
//       deny  patient.sibling ;
//       allow patient.parent ;
//       allow visit.treatment when "medication/diagnosis" ;
//     }
//     role intern extends research, billing {  // diamonds are fine
//       root deny ;                            // sees nothing at all
//     }
//   }
//
// Rules inside a role block:
//   allow A.B ;               ann_R(A, B) = allow
//   deny  A.B ;               ann_R(A, B) = deny (hides the whole subtree)
//   allow A.B when "q" ;      ann_R(A, B) = cond q (Xreg qualifier at B)
//   root allow|deny ;         root visibility (deny => empty view)
// Unannotated edges resolve through role inheritance with deny-overrides;
// see policy.h for the exact rules. Parents must be declared before the
// roles that extend them, which keeps the role graph acyclic.
//
// Lexical rules, shared with DTDs and views through common/spec_reader.h:
// keywords match as whole words, `//` comments may appear between any two
// tokens (inside the embedded DTD too), and error line numbers count over
// the whole spec.

#ifndef SMOQE_POLICY_POLICY_PARSER_H_
#define SMOQE_POLICY_POLICY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "policy/policy.h"

namespace smoqe::policy {

StatusOr<Policy> ParsePolicy(std::string_view spec);

}  // namespace smoqe::policy

#endif  // SMOQE_POLICY_POLICY_PARSER_H_

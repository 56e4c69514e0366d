// Textual view-specification format (the shape of Fig. 1(c) in the paper):
//
//   view research {
//     source dtd hospital { ... }
//     view dtd hospital { ... }
//     sigma {
//       hospital.patient = "department/patient[...=...]" ;
//       patient.parent   = "parent" ;
//     }
//   }
//
// The two embedded DTDs use the dtd_parser format and are parsed in place;
// each sigma entry annotates the view-DTD edge (A, B) with an Xreg query over
// the source DTD. A malformed query is a `view:` error naming its line.
//
// Lexical rules, shared with DTDs and policies through
// common/spec_reader.h: keywords match as whole words, `//` comments may
// appear between any two tokens (inside the embedded DTDs too), and error
// line numbers count over the whole spec.

#ifndef SMOQE_VIEW_VIEW_PARSER_H_
#define SMOQE_VIEW_VIEW_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "view/view_def.h"

namespace smoqe::view {

StatusOr<ViewDef> ParseView(std::string_view spec);

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_VIEW_PARSER_H_

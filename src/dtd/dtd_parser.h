// Textual DTD format used throughout SMOQE:
//
//   dtd hospital {
//     hospital   -> department* ;
//     department -> name, address, patient* ;
//     treatment  -> test + medication ;
//     name       -> #text ;
//     test       -> #empty ;
//   }
//
// The name after `dtd` is the root type. `B*` marks a starred child, `,`
// concatenation and `+` disjunction (they cannot be mixed in one production,
// matching the paper's normal form). `#text` is str, `#empty` is epsilon.
// Every referenced type must have a production.
//
// Lexical rules, shared with view and policy specs through
// common/spec_reader.h: keywords match as whole words, `//` comments may
// appear between any two tokens, and error line numbers count over the
// whole spec, so an error in a DTD embedded in a view or policy names its
// line in that spec.

#ifndef SMOQE_DTD_DTD_PARSER_H_
#define SMOQE_DTD_DTD_PARSER_H_

#include <string_view>

#include "common/spec_reader.h"
#include "common/status.h"
#include "dtd/dtd.h"

namespace smoqe::dtd {

/// Parses a spec that holds exactly one DTD.
StatusOr<Dtd> ParseDtd(std::string_view input);

/// Parses one `dtd ... { ... }` block where `in` stands and leaves `in`
/// just after its closing brace; the view and policy parsers read their
/// embedded DTDs through it. Errors inside the block say "DTD:".
StatusOr<Dtd> ParseDtd(common::SpecReader& in);

}  // namespace smoqe::dtd

#endif  // SMOQE_DTD_DTD_PARSER_H_

// The one tokenizer of SMOQE's three specification languages: the DTD
// format (dtd/dtd_parser.h), view specifications (view/view_parser.h) and
// annotation policies (policy/policy_parser.h). One reader walks one spec
// from its first byte to its last, embedded DTDs included, so all three
// share these lexical rules:
//
//   * whitespace and `//` comments (to the end of the line) may appear
//     between any two tokens, inside embedded DTDs too;
//   * a name is [A-Za-z0-9_-]+;
//   * a quoted string is "..." or '...', without escapes;
//   * a token that ends in a name character (a keyword such as `dtd`,
//     `role` or `#text`) matches only as a whole word: `dtdr` is the name
//     `dtdr`, never `dtd` followed by `r`;
//   * lines count from 1 over the whole spec, and every error names the
//     line the reader has reached: "<language>: <what> (line N)".

#ifndef SMOQE_COMMON_SPEC_READER_H_
#define SMOQE_COMMON_SPEC_READER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace smoqe::common {

class SpecReader {
 public:
  /// `language` prefixes every error: "DTD", "view" or "policy".
  SpecReader(std::string_view text, std::string_view language)
      : text_(text), language_(language) {}

  /// Reports errors under `language` from now on and returns the previous
  /// language, so a parser of an embedded block can switch and restore.
  std::string_view SwitchLanguage(std::string_view language);

  /// True when `token` is next (whole words only, see above).
  bool At(std::string_view token);

  /// Consumes `token` when it is next.
  bool Accept(std::string_view token);

  /// Consumes `token`, or fails with "expected '<token>'".
  Status Expect(std::string_view token);

  /// Reads a name; `what` describes it in the error ("expected a name").
  StatusOr<std::string> Name(std::string_view what = "a name");

  /// Reads a quoted string; `what` describes it in errors ("query").
  StatusOr<std::string> Quoted(std::string_view what);

  /// True when only whitespace and comments remain.
  bool AtEnd();

  /// A ParseError "<language>: <what> (line N)" at the current line.
  Status Error(std::string_view what) const;

 private:
  void Skip();

  std::string_view text_;
  std::string_view language_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace smoqe::common

#endif  // SMOQE_COMMON_SPEC_READER_H_

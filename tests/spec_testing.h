// Test helpers for the three spec languages (DTD, view, policy), shared by
// dtd_test, view_test and policy_test.

#ifndef SMOQE_TESTS_SPEC_TESTING_H_
#define SMOQE_TESTS_SPEC_TESTING_H_

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dtd/dtd.h"

namespace smoqe {

/// The DTD in the dtd_parser format, productions in type-id order: two
/// DTDs print alike exactly when they parsed alike.
inline std::string DtdText(const dtd::Dtd& d) {
  std::string out = "dtd " + d.type_name(d.root()) + " {";
  for (dtd::TypeId t = 0; t < d.num_types(); ++t) {
    const dtd::Production& p = d.production(t);
    out += " " + d.type_name(t) + " ->";
    if (p.kind == dtd::ContentKind::kText) out += " #text";
    if (p.kind == dtd::ContentKind::kEmpty) out += " #empty";
    for (size_t i = 0; i < p.children.size(); ++i) {
      if (i > 0) out += p.kind == dtd::ContentKind::kChoice ? " +" : ",";
      out += " " + d.type_name(p.children[i].type);
      if (p.children[i].starred) out += "*";
    }
    out += " ;";
  }
  return out + " }";
}

/// Corrupted copies of `spec` for the seeded fuzz cases, in the style of the
/// XML parser's and the storage decoders' fuzzers. Each copy has one to four
/// mutations: a random byte, a truncation, or an inserted `{`, `}`, `"`,
/// `//` or newline. A parser must return on every copy, with a value or a
/// non-OK status; the ASan job turns an overread into a failure and the
/// test timeout a hang.
constexpr int kSpecCorruptions = 2000;

inline std::vector<std::string> CorruptedSpecs(std::string_view spec,
                                               uint64_t seed) {
  static constexpr std::string_view kInserts[] = {"{", "}", "\"", "//", "\n"};
  std::mt19937_64 rng(seed);
  std::vector<std::string> out(kSpecCorruptions, std::string(spec));
  for (std::string& fuzzed : out) {
    for (int m = 1 + static_cast<int>(rng() % 4); m > 0 && !fuzzed.empty();
         --m) {
      const size_t at = rng() % fuzzed.size();
      switch (rng() % 3) {
        case 0:
          fuzzed[at] = static_cast<char>(rng() % 256);
          break;
        case 1:
          fuzzed.resize(at);
          break;
        default:
          fuzzed.insert(at, kInserts[rng() % std::size(kInserts)]);
          break;
      }
    }
  }
  return out;
}

}  // namespace smoqe

#endif  // SMOQE_TESTS_SPEC_TESTING_H_

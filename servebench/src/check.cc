// `servebench check DIR`: every answer the serve phase fingerprinted is
// compared with the materialize-then-evaluate oracle -- view::Materialize
// of the (role's) security view, eval::NaiveEvaluator on the copy, and
// view::MapToSource back to source ids. Durable reads pass if they equal
// the oracle at SOME version between the one read before Submit and the one
// read after resolution; the deltas are replayed on a copy for that, and
// every replayed version must validate against the hospital DTD. A planted
// wrong answer (one fingerprint flipped) must be flagged, or the check
// itself counts as broken.

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "dtd/validator.h"
#include "eval/naive_evaluator.h"
#include "helpers.h"
#include "inputs.h"
#include "policy/policy_parser.h"
#include "policy/role_compiler.h"
#include "report.h"
#include "view/materializer.h"
#include "view/view_parser.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace servebench {
namespace {

namespace policy = smoqe::policy;
namespace view = smoqe::view;

struct Answered {
  size_t index;  // into Inputs::reads
  uint64_t v0, v1;
  int code;
  Fingerprint fp;
};

// Oracle answers of `queries` (indices into `texts`) over one view.
std::map<int, Fingerprint> OracleOver(const view::ViewDef& v,
                                      const xml::Tree& source,
                                      const std::vector<std::string>& texts,
                                      const std::vector<int>& queries) {
  auto mat = OrDie(view::Materialize(v, source), "materialize");
  smoqe::eval::NaiveEvaluator naive(mat.tree);
  std::map<int, Fingerprint> out;
  for (int q : queries) {
    auto parsed = OrDie(smoqe::xpath::ParseQuery(texts[q]), "parse query");
    out[q] = FingerprintOf(
        view::MapToSource(mat, naive.Eval(parsed, mat.tree.root())));
  }
  return out;
}

// Oracle per (role, query) pair the run asked, roles spread over threads.
std::map<std::pair<int, int>, Fingerprint> TenantOracle(
    const Inputs& in, const xml::Tree& tree,
    const std::vector<Answered>& answered) {
  const policy::Policy pol = OrDie(policy::ParsePolicy(in.spec), "policy");
  std::map<int, std::vector<int>> by_role;
  for (const Answered& a : answered) {
    const ReadOp& op = in.reads[a.index];
    by_role[op.role].push_back(op.query);
  }
  std::vector<std::pair<int, std::vector<int>>> work(by_role.begin(),
                                                     by_role.end());
  for (auto& [role, qs] : work) {
    std::sort(qs.begin(), qs.end());
    qs.erase(std::unique(qs.begin(), qs.end()), qs.end());
  }
  std::map<std::pair<int, int>, Fingerprint> out;
  std::mutex mu;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t k; (k = next++) < work.size();) {
      const auto& [role, qs] = work[k];
      auto compiled = OrDie(policy::CompileRole(pol, role), "compile role");
      std::map<int, Fingerprint> answers;
      if (compiled.root_hidden) {
        for (int q : qs) answers[q] = FingerprintOf({});
      } else {
        answers = OracleOver(*compiled.view, tree, in.queries, qs);
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [q, fp] : answers) out[{role, q}] = fp;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return out;
}

}  // namespace

int Check(const std::string& dir) {
  const Inputs in = Load(dir);
  const Workload& w = in.workload;
  std::vector<Answered> answered;
  {
    std::istringstream as(ReadFileOrDie(dir + "/answers.txt"));
    Answered a{};
    double latency_ms = 0;
    while (as >> a.index >> a.v0 >> a.v1 >> a.code >> a.fp.size >> a.fp.hash >>
           latency_ms) {
      if (a.index >= in.reads.size()) Fail("answers.txt: bad read index");
      answered.push_back(a);
    }
  }
  std::vector<int> write_codes;
  {
    std::istringstream ws(ReadFileOrDie(dir + "/writes_out.txt"));
    for (int c; ws >> c;) write_codes.push_back(c);
  }

  int64_t failed = 0;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  };
  for (size_t j = 0; j < write_codes.size(); ++j) {
    if (write_codes[j] != 0) {
      fail("write " + std::to_string(j) + " status " +
           std::to_string(write_codes[j]));
    }
  }
  std::vector<Answered> ok_reads;
  for (const Answered& a : answered) {
    if (a.code != 0) {
      fail("read " + std::to_string(a.index) + " status " +
           std::to_string(a.code));
    } else {
      ok_reads.push_back(a);
    }
  }
  auto wrong = [&](const Answered& a) {
    const ReadOp& op = in.reads[a.index];
    fail("read " + std::to_string(a.index) + " (role " +
         std::to_string(op.role) + ", query '" + in.queries[op.query] +
         "') disagrees with the oracle");
  };

  // The planted wrong answer: a copy of the first checked read with one
  // fingerprint bit flipped.
  bool planted_flagged = ok_reads.empty();
  Answered planted{};
  if (!ok_reads.empty()) {
    planted = ok_reads.front();
    planted.fp.hash ^= 1;
  }

  xml::Tree tree = OrDie(xml::ParseXml(in.doc_xml), "parse document");
  int64_t invalid_versions = 0;
  int64_t versions_checked = 0;
  if (w.roles > 0) {
    const auto oracle = TenantOracle(in, tree, ok_reads);
    auto expected = [&](const Answered& a) {
      const ReadOp& op = in.reads[a.index];
      return oracle.at({op.role, op.query});
    };
    for (const Answered& a : ok_reads) {
      if (!(expected(a) == a.fp)) wrong(a);
    }
    if (!ok_reads.empty()) planted_flagged = !(expected(planted) == planted.fp);
  } else {
    const view::ViewDef v = OrDie(view::ParseView(in.spec), "parse view");
    // Version v of the served document is doc.xml plus deltas [0, v).
    BracketChecker brackets;
    for (size_t k = 0; k < ok_reads.size(); ++k) {
      const Answered& a = ok_reads[k];
      brackets.Add(static_cast<int64_t>(k), a.v0, a.v1,
                   in.reads[a.index].query, a.fp);
    }
    if (!ok_reads.empty()) {
      brackets.Add(-1, planted.v0, planted.v1, in.reads[planted.index].query,
                   planted.fp);
    }
    const uint64_t last = std::max<uint64_t>(
        brackets.max_version(), w.wal_tail + write_codes.size());
    if (last > in.deltas.size()) Fail("reads reference unknown versions");
    for (uint64_t version = 0; version <= last; ++version) {
      if (version > 0) {
        auto delta = OrDie(xml::TreeDelta::Deserialize(in.deltas[version - 1]),
                           "decode delta");
        smoqe::Status s = delta.ApplyTo(&tree);
        if (!s.ok()) Fail("replay delta: " + s.ToString());
      }
      if (!smoqe::dtd::ValidateDocument(v.source_dtd(), tree).ok()) {
        ++invalid_versions;
      }
      ++versions_checked;
      const std::vector<int> needed = brackets.Needed(version);
      if (needed.empty()) continue;
      const auto oracle = OracleOver(v, tree, in.queries, needed);
      brackets.Resolve(version, [&](int q) { return oracle.at(q); });
    }
    for (int64_t k : brackets.Unmatched()) {
      if (k < 0) {
        planted_flagged = true;
      } else {
        wrong(ok_reads[k]);
      }
    }
  }
  if (invalid_versions > 0) {
    fail(std::to_string(invalid_versions) +
         " replayed versions violate the hospital DTD");
  }

  const int64_t attempted =
      static_cast<int64_t>(answered.size() + write_codes.size());
  Json out;
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Int("planted_flagged", planted_flagged ? 1 : 0);
  out.Int("versions_checked", versions_checked);
  out.Int("invalid_versions", invalid_versions);
  std::string list;
  for (const std::string& f : failures) list += (list.empty() ? "" : "; ") + f;
  out.Str("failures", list);
  WriteFileOrDie(dir + "/check.json", out.str());
  std::printf("check: %lld of %lld operations failed%s%s\n",
              static_cast<long long>(failed),
              static_cast<long long>(attempted), list.empty() ? "" : ": ",
              list.c_str());
  return 0;
}

}  // namespace servebench

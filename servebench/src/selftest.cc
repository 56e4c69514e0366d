// Tests of the benchmark's own helpers. Plain checks that stay on in every
// build type; exits non-zero if any fails. run.py runs it before every
// measurement: servebench_selftest SCRATCH_DIR.

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include "dtd/validator.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "helpers.h"
#include "inputs.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

void PercentileHonoursTenBeyondRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(Percentile(v, 0.50) == 500);
  EXPECT(Percentile(v, 0.99) == 990);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(PercentileReportable(1000, 0.99));
  EXPECT(!PercentileReportable(999, 0.99));
  EXPECT(!PercentileReportable(9999, 0.999));
  EXPECT(PercentileReportable(10000, 0.999));
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(Percentile({7}, 0.99) == 7);
}

void SchedulesReproduceExactly(const std::string& scratch) {
  const auto a = PoissonArrivals(42, 80, 20);
  const auto b = PoissonArrivals(42, 80, 20);
  EXPECT(a == b);
  EXPECT(a != PoissonArrivals(43, 80, 20));
  EXPECT(a.size() > 1400 && a.size() < 1800);  // 1600 expected
  EXPECT(std::is_sorted(a.begin(), a.end()));
  EXPECT(!a.empty() && a.back() < 20'000'000);

  const Zipf zipf(1000, 1.0);
  std::mt19937_64 r1(7), r2(7);
  std::vector<int> hits(1000);
  for (int i = 0; i < 20000; ++i) {
    const int x = zipf.Sample(r1);
    EXPECT(x == zipf.Sample(r2));
    ++hits[x];
  }
  EXPECT(hits[0] > hits[1] && hits[1] > hits[9] && hits[9] > hits[999]);
  // Rank 0 has probability 1 / H(1000) ~ 0.134.
  EXPECT(hits[0] > 2400 && hits[0] < 2950);

  // Whole input sets reproduce byte for byte from the seed.
  const std::string base = scratch + "/selftest_inputs";
  std::filesystem::remove_all(base);
  Generate(WorkloadNamed("tenant_mix"), 5, 1, base + "/a");
  Generate(WorkloadNamed("tenant_mix"), 5, 1, base + "/a2");
  Generate(WorkloadNamed("tenant_mix"), 6, 1, base + "/b");
  for (const char* f : {"doc.xml", "spec.txt", "queries.txt", "reads.txt"}) {
    EXPECT(ReadFileOrDie(base + "/a/" + f) == ReadFileOrDie(base + "/a2/" + f));
  }
  EXPECT(ReadFileOrDie(base + "/a/reads.txt") !=
         ReadFileOrDie(base + "/b/reads.txt"));
  // The tenants are fixed; the seed varies the traffic.
  EXPECT(ReadFileOrDie(base + "/a/spec.txt") ==
         ReadFileOrDie(base + "/b/spec.txt"));
  std::filesystem::remove_all(base);
}

void DeltasStayDtdValid() {
  smoqe::gen::HospitalParams params;
  params.patients = 60;
  params.seed = 11;
  const std::string text = xml::WriteXml(smoqe::gen::GenerateHospital(params));
  auto parsed = xml::ParseXml(text);
  EXPECT(parsed.ok());
  if (!parsed.ok()) return;
  xml::Tree replica = parsed.value();  // what a consumer of the deltas holds
  const smoqe::dtd::Dtd dtd = smoqe::gen::HospitalDtd();
  ClinicalDeltas source(parsed.take(), 99, 0);
  int kinds[3] = {0, 0, 0};
  for (int step = 0; step < 400; ++step) {
    const xml::TreeDelta delta = source.Next();
    EXPECT(delta.from_version() == static_cast<uint64_t>(step));
    EXPECT(delta.ops().size() == 1);
    ++kinds[static_cast<int>(delta.ops().front().kind)];
    EXPECT(smoqe::dtd::ValidateDocument(dtd, source.tree()).ok());
    // The serialized delta applies to an id-identical replica.
    std::string bytes;
    delta.Serialize(&bytes);
    auto decoded = xml::TreeDelta::Deserialize(bytes);
    EXPECT(decoded.ok() && decoded.value().ApplyTo(&replica).ok());
  }
  EXPECT(xml::StructurallyEqual(replica, source.tree()));
  EXPECT(kinds[0] > 0 && kinds[1] > 0);  // inserts (visits, admits), deletes
}

void BracketCheckerAcceptsAndRejects() {
  const Fingerprint a = FingerprintOf({1, 2, 3});
  const Fingerprint b = FingerprintOf({1, 2, 4});
  EXPECT(!(a == b));
  EXPECT(FingerprintOf({1, 2, 3}) == a);
  // Oracle: query 0 answers `a` at versions <= 4 and `b` from version 5.
  auto oracle_at = [&](uint64_t v) {
    return [&, v](int) { return v <= 4 ? a : b; };
  };
  BracketChecker c;
  c.Add(0, 3, 5, 0, b);  // b at 5: inside the bracket -> accepted
  c.Add(1, 3, 4, 0, b);  // b only after the bracket -> rejected
  c.Add(2, 6, 6, 0, a);  // a only before the bracket -> rejected
  c.Add(3, 0, 9, 0, a);  // wide bracket -> accepted
  c.Add(4, 2, 2, 0, a);  // exact version -> accepted
  c.Add(5, 5, 3, 0, b);  // empty bracket -> rejected
  EXPECT(c.max_version() == 9);
  EXPECT(c.Needed(3) == std::vector<int>{0});
  for (uint64_t v = 0; v <= c.max_version(); ++v) {
    if (!c.Needed(v).empty()) c.Resolve(v, oracle_at(v));
  }
  EXPECT((c.Unmatched() == std::vector<int64_t>{1, 2, 5}));
  EXPECT(c.Needed(5).empty());  // only matched or out-of-bracket reads left
}

void SelfTimeOnNestedSpans() {
  std::vector<Span> s = {
      {"exec.batch", 0, 100, -1, 1},    // 0
      {"rewrite.get", 10, 30, 0, 1},    // 1
      {"exec.eval_all", 20, 50, 0, 1},  // 2: overlaps 1
      {"hype.plane_for", 12, 15, 1, 1},  // 3: child of 1
      {"storage.fsync", 90, 120, 0, 1},  // 4: runs past its parent
  };
  const std::vector<int64_t> self = SelfTimes(s);
  EXPECT(self[0] == 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT(self[1] == 20 - 3);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 3);
  EXPECT(self[4] == 30);
  EXPECT(LayerOf("exec.eval_all") == "exec");
  EXPECT(LayerOf("xml") == "xml");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: servebench_selftest SCRATCH_DIR\n");
    return 2;
  }
  servebench::PercentileHonoursTenBeyondRule();
  servebench::SchedulesReproduceExactly(argv[1]);
  servebench::DeltasStayDtdValid();
  servebench::BracketCheckerAcceptsAndRejects();
  servebench::SelfTimeOnNestedSpans();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "selftest: %d failed checks\n", servebench::failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}

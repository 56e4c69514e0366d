// Multi-query throughput: queries/sec for per-query HyPE passes vs the
// batched shared-pass evaluator (BatchHypeEvaluator), at batch sizes
// 1/4/16/64, with and without the subtree-label index, plus the compilation
// amortization of the RewriteCache (cold parse+rewrite vs cache hit).
// "Per query" means N solo HypeEvaluators, each a batch of one: both modes
// run the same joint driver, so the ratio isolates what sharing one walk
// across the batch buys.
//
// Two modes:
//  * default: google-benchmark binary (Throughput/* and Rewrite/* families);
//  * --smoqe_json=FILE: a short self-timed smoke run that reports
//    queries/sec per batch size and index setting (SmokeReport in
//    bench_common.h). Combine with SMOQE_BENCH_PATIENTS to shrink the
//    document.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "bench_common.h"
#include "gen/fixtures.h"
#include "hype/batch_hype.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/rewriter.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

// A server-like workload: n DISTINCT queries over the hospital document —
// filtered queries (text predicates, descendant filters, Kleene stars) mixed
// with plain navigation/extraction paths (the same mix as the paper's own
// Section 7 query set), cycling through shape templates with varying text
// constants (4 filtered : 4 navigation per 8 slots).
std::vector<std::string> MakeWorkload(int n) {
  static const char* const kCities[] = {"Edinburgh", "Istanbul", "Antwerp",
                                        "Madison"};
  static const char* const kSpecialties[] = {"cardiology", "neurology",
                                             "oncology", "pediatrics"};
  // Filter-free extraction paths, rotated so repeated template slots still
  // draw distinct queries.
  static const char* const kExactPaths[] = {
      "department/patient/pname",
      "department/patient/visit/date",
      "department/patient/address/street",
      "department/patient/visit/doctor/dname",
      "department/patient/visit/treatment/medication/type",
      "department/patient/address/zip",
      "department/patient/visit/treatment/test/type",
      "department/patient/sibling/patient/pname",
  };
  static const char* const kDescendantPaths[] = {
      "//diagnosis", "//pname",      "//doctor", "//medication",
      "//test",      "//specialty", "//date",   "//sibling",
  };
  static const char* const kWildcardPaths[] = {
      "department/name",
      "department/patient/visit/treatment/*",
      "department/*/pname",
      "department/patient/parent/patient/pname",
      "department/patient/visit/*/medication/diagnosis",
      "department/patient/(parent | sibling)/patient/visit/date",
      "department/*/visit/doctor/*",
      "department/patient/*/patient/address/city",
  };
  static const char* const kUnionPaths[] = {
      "department/patient/(pname | address/city)",
      "department/patient/visit/(date | doctor/dname)",
      "department/patient/visit/treatment/(medication | test)/type",
      "department/(name | patient/pname)",
      "department/patient/(address/(street | zip) | visit/date)",
      "department/patient/(parent/patient)*/pname",
      "department/patient/(sibling/patient/pname | parent/patient/pname)",
      "department/patient/visit/(doctor/specialty | treatment/test/type)",
  };
  // Projections rotated through the repeated template slots so a constant
  // drawn from a small pool (4 cities, 4 specialties) still yields a
  // distinct query per slot occurrence.
  static const char* const kHeavyProjections[] = {"", "/pname", "/visit/date",
                                                  "/address/city"};
  std::vector<std::string> queries;
  int i = 0;
  while (static_cast<int>(queries.size()) < n) {
    const int round = i / 8;
    // Decorrelate the constants from the template selector (i % 8 fixes
    // i % 4, so `i % 4` alone would repeat the same constant every round).
    const std::string city = kCities[(i + round) % 4];
    const std::string spec = kSpecialties[(i + round) % 4];
    const std::string med = "med-" + std::to_string(1 + i % 50);
    switch (i % 8) {
      case 0:
        queries.push_back("department/patient[address/city/text() = '" + city +
                          "']" + (round % 8 < 4 ? "/pname" : "/visit/date"));
        break;
      case 1:
        queries.push_back(
            "department/patient/visit/treatment/medication[type/text() = '" +
            med + "']");
        break;
      case 2:
        queries.push_back("//doctor[specialty/text() = '" + spec + "']" +
                          std::string(round % 8 < 4 ? "" : "/dname"));
        break;
      case 3:
        queries.push_back(
            round % 2 == 0
                ? "//patient[visit/treatment/medication/diagnosis/text() = "
                  "'heart disease']" + std::string(kHeavyProjections[
                      (round / 2) % 4])
                : "department/patient/(parent/patient)*"
                  "[address/city/text() = '" + city + "']" +
                      (round % 8 < 4 ? "/pname" : "/visit/date"));
        break;
      case 4:
        queries.push_back(kExactPaths[round % 8]);
        break;
      case 5:
        queries.push_back(kDescendantPaths[round % 8]);
        break;
      case 6:
        queries.push_back(kWildcardPaths[round % 8]);
        break;
      default:
        queries.push_back(kUnionPaths[round % 8]);
        break;
    }
    ++i;
  }
  // The workload models distinct server queries; duplicates would hand the
  // batched mode perfect sharing the baseline cannot have. (Holds for
  // n <= 64; larger batches intentionally start repeating like real traffic.)
  if (n <= 64) {
    std::vector<std::string> sorted = queries;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      std::fprintf(stderr, "MakeWorkload produced duplicate queries\n");
      std::exit(1);
    }
  }
  return queries;
}

std::vector<automata::Mfa> CompileWorkload(const std::vector<std::string>& qs) {
  std::vector<automata::Mfa> mfas;
  mfas.reserve(qs.size());
  for (const std::string& q : qs) {
    auto parsed = xpath::ParseQuery(q);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad workload query %s: %s\n", q.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    mfas.push_back(automata::CompileQuery(parsed.value()));
  }
  return mfas;
}

const hype::SubtreeLabelIndex* MaybeIndex(const xml::Tree& tree, bool indexed) {
  if (!indexed) return nullptr;
  return &IndexFor(tree, hype::SubtreeLabelIndex::Mode::kFull);
}

// ---- google-benchmark families ----

void BM_PerQuery(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int batch = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));

  hype::HypeOptions options;
  options.index = MaybeIndex(tree, indexed);
  options.plane = &PlaneFor(tree);
  // Persistent evaluators (warm transition tables), answered one pass each.
  std::vector<std::unique_ptr<hype::HypeEvaluator>> evals;
  for (const automata::Mfa& mfa : mfas) {
    evals.push_back(std::make_unique<hype::HypeEvaluator>(tree, mfa, options));
  }
  int64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (auto& eval : evals) {
      answers += static_cast<int64_t>(eval->Eval(tree.root()).size());
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_Batched(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int batch = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);

  hype::BatchHypeOptions options;
  options.index = MaybeIndex(tree, indexed);
  options.plane = &PlaneFor(tree);
  hype::BatchHypeEvaluator eval(tree, ptrs, options);
  int64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const auto& result : eval.EvalAll(tree.root())) {
      answers += static_cast<int64_t>(result.size());
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["nodes_walked"] =
      static_cast<double>(eval.pass_stats().nodes_walked);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_RewriteCold(benchmark::State& state) {
  view::ViewDef def = gen::HospitalView();
  const std::string query =
      "patient[(parent/patient)*/record/diagnosis/text() = 'heart disease']";
  for (auto _ : state) {
    auto parsed = xpath::ParseQuery(query);
    auto mfa = rewrite::RewriteToMfa(parsed.value(), def);
    benchmark::DoNotOptimize(mfa.value().nfa.size());
  }
}

void BM_RewriteCached(benchmark::State& state) {
  view::ViewDef def = gen::HospitalView();
  rewrite::RewriteCache cache(&def);
  const std::string query =
      "patient[(parent/patient)*/record/diagnosis/text() = 'heart disease']";
  (void)cache.Get(query);  // warm the single entry
  for (auto _ : state) {
    auto mfa = cache.Get(query);
    benchmark::DoNotOptimize(mfa.value().mfa->nfa.size());
  }
}

void RegisterAll() {
  for (bool batched : {false, true}) {
    auto* b = benchmark::RegisterBenchmark(
        batched ? "Throughput/Batched" : "Throughput/PerQuery",
        batched ? BM_Batched : BM_PerQuery);
    b->ArgNames({"batch", "index"})->Unit(benchmark::kMillisecond);
    for (int indexed : {0, 1}) {
      for (int batch : {1, 4, 16, 64}) b->Args({batch, indexed});
    }
  }
  benchmark::RegisterBenchmark("Rewrite/Cold", BM_RewriteCold);
  benchmark::RegisterBenchmark("Rewrite/Cached", BM_RewriteCached);
}

// ---- --smoqe_json smoke mode ----

int RunSmoke(SmokeReport* report) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  std::vector<std::string> workload = MakeWorkload(64);
  std::vector<automata::Mfa> mfas = CompileWorkload(workload);
  report->info["elements"] = tree.CountElements();

  for (bool indexed : {false, true}) {
    for (int batch : {1, 4, 16, 64}) {
      hype::HypeOptions solo_options;
      solo_options.index = MaybeIndex(tree, indexed);
      solo_options.plane = &PlaneFor(tree);
      std::vector<std::unique_ptr<hype::HypeEvaluator>> evals;
      std::vector<const automata::Mfa*> ptrs;
      for (int i = 0; i < batch; ++i) {
        evals.push_back(std::make_unique<hype::HypeEvaluator>(tree, mfas[i],
                                                              solo_options));
        ptrs.push_back(&mfas[i]);
      }
      hype::BatchHypeOptions batch_options;
      batch_options.index = solo_options.index;
      batch_options.plane = solo_options.plane;
      hype::BatchHypeEvaluator batch_eval(tree, ptrs, batch_options);

      auto run_per_query = [&] {
        for (auto& eval : evals) benchmark::DoNotOptimize(eval->Eval(tree.root()));
      };
      auto run_batched = [&] {
        benchmark::DoNotOptimize(batch_eval.EvalAll(tree.root()));
      };
      // Warm the transition tables and check the modes agree before timing.
      std::vector<std::vector<xml::NodeId>> batched_answers =
          batch_eval.EvalAll(tree.root());
      for (int i = 0; i < batch; ++i) {
        if (evals[i]->Eval(tree.root()) != batched_answers[i]) {
          std::fprintf(stderr, "batched/per-query mismatch on %s\n",
                       workload[i].c_str());
          return 1;
        }
      }
      double pq_qps = batch / BestSecondsPerRound(run_per_query);
      double b_qps = batch / BestSecondsPerRound(run_batched);

      const std::string key = "batch=" + std::to_string(batch) +
                              "/indexed=" + (indexed ? "true" : "false");
      report->metrics[key + "/per_query_qps"] = pq_qps;
      report->metrics[key + "/batched_qps"] = b_qps;
      report->info[key + "/speedup"] = b_qps / pq_qps;
    }
  }
  return 0;
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterAll();
  return smoqe::bench::SmokeMain(argc, argv, "throughput",
                                 smoqe::bench::RunSmoke);
}

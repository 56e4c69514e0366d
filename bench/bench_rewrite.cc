// Theorem 5.1: Algorithm rewrite runs in O(|Q|^2 |sigma| |D_V|^2) time and
// produces an MFA of size O(|Q| |sigma| |D_V|). We grow |Q| along three query
// families over the hospital view and report rewriting time plus MFA size.
//
// --smoqe_json=FILE instead runs the query-compilation smoke bench
// (SmokeReport in bench_common.h): full compile pipeline on a cold
// RewriteCache vs a warm cache hit, and cold vs plane-warm engine starts
// (first evaluation through a fresh hype::TransitionPlane vs a fresh engine
// on an already-warm shared plane). Counters record the plane insertions of
// each phase; warm starts must intern exactly zero configurations --
// asserted here and gated against growth by ci/check_bench_regression.py.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "hype/transition_plane.h"
#include "rewrite/rewrite_cache.h"
#include "rewrite/rewriter.h"
#include "view/view_def.h"
#include "xpath/ast.h"
#include "xpath/parser.h"

namespace {

const smoqe::view::ViewDef& Hospital() {
  static const smoqe::view::ViewDef* def =
      new smoqe::view::ViewDef(smoqe::gen::HospitalView());
  return *def;
}

std::string ChainQuery(int n) {
  std::string q = "patient";
  for (int i = 1; i < n; ++i) q += i % 2 == 1 ? "/parent" : "/patient";
  return q;
}

std::string FilterQuery(int n) {
  std::string q = "patient";
  for (int i = 0; i < n; ++i) q += "[record/diagnosis]";
  return q;
}

std::string StarQuery(int n) {
  std::string q = "(patient/parent)*";
  for (int i = 1; i < n; ++i) q += "/patient/(parent/patient)*";
  return q;
}

void RunRewrite(benchmark::State& state, const std::string& query) {
  auto q = smoqe::xpath::ParseQuery(query);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  int64_t mfa_size = 0;
  for (auto _ : state) {
    auto mfa = smoqe::rewrite::RewriteToMfa(q.value(), Hospital());
    if (!mfa.ok()) {
      state.SkipWithError(mfa.status().ToString().c_str());
      return;
    }
    mfa_size = mfa.value().SizeMeasure();
    benchmark::DoNotOptimize(mfa);
  }
  state.counters["Q_size"] =
      static_cast<double>(smoqe::xpath::ExpandedSize(q.value()));
  state.counters["mfa_size"] = static_cast<double>(mfa_size);
  state.counters["mfa_per_Q"] =
      static_cast<double>(mfa_size) /
      static_cast<double>(smoqe::xpath::ExpandedSize(q.value()));
}

void BM_RewriteChain(benchmark::State& state) {
  RunRewrite(state, ChainQuery(static_cast<int>(state.range(0))));
}
void BM_RewriteFilters(benchmark::State& state) {
  RunRewrite(state, FilterQuery(static_cast<int>(state.range(0))));
}
void BM_RewriteStars(benchmark::State& state) {
  RunRewrite(state, StarQuery(static_cast<int>(state.range(0))));
}

BENCHMARK(BM_RewriteChain)->DenseRange(2, 20, 3)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RewriteFilters)->DenseRange(1, 16, 3)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RewriteStars)->DenseRange(1, 10, 3)->Unit(benchmark::kMicrosecond);

// ---- --smoqe_json smoke mode (query compilation & the transition plane) ----

// Shared sampling policy (bench_common), samples batched to ~50ms: the
// compile/hit rounds here are microseconds, so shorter batches keep the
// smoke quick without losing stability.
double BestSecondsPerRound(const std::function<void()>& fn) {
  return smoqe::bench::BestSecondsPerRound(fn, 0.05);
}

std::vector<std::string> SmokeWorkload() {
  std::vector<std::string> queries = {
      smoqe::gen::kQueryExample11,
      "patient[record/diagnosis/text() = 'heart disease']",
      "//diagnosis",
      "patient/record",
      "patient[not(parent)]",
  };
  queries.push_back(ChainQuery(6));
  queries.push_back(FilterQuery(3));
  queries.push_back(StarQuery(2));
  return queries;
}

int RunSmoke(smoqe::bench::SmokeReport* report) {
  using smoqe::rewrite::RewriteCache;
  const smoqe::view::ViewDef& view = Hospital();
  const std::vector<std::string> queries = SmokeWorkload();
  const int num_queries = static_cast<int>(queries.size());

  // Compile pipeline: cold cache (parse + rewrite + CSR flattening) vs a
  // warm cache hit (parse + normalized lookup).
  const double compile_cold_s = BestSecondsPerRound([&] {
    RewriteCache cache(&view);
    for (const std::string& q : queries) {
      auto compiled = cache.Get(q);
      if (!compiled.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     compiled.status().ToString().c_str());
        std::exit(1);
      }
      benchmark::DoNotOptimize(compiled.value().mfa);
    }
  }) / num_queries;
  RewriteCache warm_cache(&view);
  std::vector<smoqe::rewrite::CompiledQuery> compiled;
  for (const std::string& q : queries) {
    compiled.push_back(warm_cache.Get(q).value());
  }
  const double cache_hit_s = BestSecondsPerRound([&] {
    for (const std::string& q : queries) {
      benchmark::DoNotOptimize(warm_cache.Get(q).value().mfa);
    }
  }) / num_queries;

  // Engine starts over the source document: a COLD start builds a fresh
  // TransitionPlane and pays all interning during its first pass; a
  // PLANE-WARM start is a fresh engine on the shared, fully warmed plane --
  // the shape every shard worker and repeated service batch sees.
  const smoqe::xml::Tree& doc =
      smoqe::bench::HospitalDoc(smoqe::bench::BasePatients());
  const smoqe::xml::DocPlane& doc_plane = smoqe::bench::PlaneFor(doc);
  int64_t cold_interned = 0;
  const double cold_start_s = BestSecondsPerRound([&] {
    cold_interned = 0;
    for (const auto& cq : compiled) {
      smoqe::hype::HypeOptions options;
      options.plane = &doc_plane;
      options.transition_plane =
          std::make_shared<smoqe::hype::TransitionPlane>(
              doc, *cq.mfa, cq.compiled, nullptr);
      smoqe::hype::HypeEvaluator eval(doc, *cq.mfa, options);
      benchmark::DoNotOptimize(eval.Eval(doc.root()));
      cold_interned += eval.stats().configs_interned;
    }
  }) / num_queries;

  smoqe::hype::TransitionPlaneStore store(doc, nullptr);
  for (const auto& cq : compiled) {
    smoqe::hype::HypeOptions options;
    options.plane = &doc_plane;
    options.transition_plane = store.For(cq.mfa.get(), cq.compiled);
    smoqe::hype::HypeEvaluator warmer(doc, *cq.mfa, options);
    benchmark::DoNotOptimize(warmer.Eval(doc.root()));  // warm the plane
  }
  int64_t warm_interned = 0;
  const double warm_start_s = BestSecondsPerRound([&] {
    warm_interned = 0;
    for (const auto& cq : compiled) {
      smoqe::hype::HypeOptions options;
      options.plane = &doc_plane;
      options.transition_plane = store.For(cq.mfa.get());
      smoqe::hype::HypeEvaluator eval(doc, *cq.mfa, options);
      benchmark::DoNotOptimize(eval.Eval(doc.root()));
      warm_interned += eval.stats().configs_interned;
    }
  }) / num_queries;

  if (warm_interned != 0) {
    std::fprintf(stderr,
                 "FAIL: plane-warm engine starts interned %lld "
                 "configurations (want 0)\n",
                 static_cast<long long>(warm_interned));
    return 1;
  }

  report->info["queries"] = num_queries;
  report->info["elements"] = doc.CountElements();
  report->info["hit_speedup"] = compile_cold_s / cache_hit_s;
  report->info["warm_start_speedup"] = cold_start_s / warm_start_s;
  report->metrics["compiles_per_sec"] = 1.0 / compile_cold_s;
  report->metrics["cache_hits_per_sec"] = 1.0 / cache_hit_s;
  report->metrics["cold_starts_per_sec"] = 1.0 / cold_start_s;
  report->metrics["warm_starts_per_sec"] = 1.0 / warm_start_s;
  report->counters["cold_configs_interned"] = cold_interned;
  report->counters["warm_configs_interned"] = warm_interned;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return smoqe::bench::SmokeMain(argc, argv, "rewrite", RunSmoke);
}

// Columnar document plane: full-DFS vs jump-mode traversal vs the PR 3
// sharded baseline, on label-sparse and label-dense workloads.
//
// The jump driver (hype/batch_hype.h) skips positions whose label is in no
// live engine's relevant set by leaping across the plane's posting lists;
// its win is proportional to label sparsity. This bench pins that win:
//  * label-sparse navigation (the target workload: rare labels, simple
//    configurations) -- jump must beat the PR 3 sharded baseline >= 1.5x;
//  * label-sparse mixed (adds filters below rare labels: framed engines in
//    rare subtrees, jump elsewhere);
//  * label-dense navigation (candidates everywhere: measures jump overhead,
//    expected ~parity with full DFS).
//
// Two modes:
//  * default: google-benchmark binary (DocPlane/* families, sparse_nav);
//  * --smoqe_json=FILE: a short self-timed smoke run reporting queries/sec
//    per workload x mode (SmokeReport in bench_common.h). Every timing is
//    preceded by a bit-identity gate: answers AND traversal statistics
//    (elements visited, cans sizes, AFA requests) of every mode must equal
//    the solo no-jump HypeEvaluator's, for every query in every mix; a
//    mismatch aborts the run. Document size scales with
//    SMOQE_BENCH_PATIENTS (elements ~= 2000x patients), so CI smoke stays
//    small.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "automata/compiler.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "exec/sharded_eval.h"
#include "hype/batch_hype.h"
#include "hype/hype.h"
#include "xml/doc_plane.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

// A synthetic document with six common "filler" labels and four rare
// "needle" labels (~0.5% of elements), built by random-parent attachment
// (expected depth O(log n), bushy like real data). Deterministic for a
// fixed element count.
xml::Tree SparseDoc(int num_elements) {
  std::mt19937_64 rng(20260730);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  xml::Tree tree;
  std::vector<xml::NodeId> elements;
  elements.push_back(tree.AddRoot("filler0"));
  for (int i = 1; i < num_elements; ++i) {
    xml::NodeId parent = elements[rng() % elements.size()];
    std::string label;
    if (coin(rng) < 0.005) {
      label = "needle" + std::to_string(rng() % 4);
    } else {
      label = "filler" + std::to_string(rng() % 6);
    }
    elements.push_back(tree.AddElement(parent, label));
    if (coin(rng) < 0.1) {
      tree.AddText(elements.back(), coin(rng) < 0.5 ? "alpha" : "beta");
    }
  }
  return tree;
}

std::vector<std::string> SparseNavWorkload() {
  return {
      "//needle0", "//needle1", "//needle2", "//needle3",
      "//needle0/needle1", "//needle1/needle2", "//needle2/needle3",
      "//needle3/needle0",
      "//needle0/(*)*/needle2", "//needle1/(*)*/needle3",
      "//needle2/(*)*/needle0", "//needle3/(*)*/needle1",
      "//needle0 | //needle2", "//needle1 | //needle3",
      "//needle0/filler0", "//needle1/filler1",
  };
}

std::vector<std::string> SparseMixedWorkload() {
  std::vector<std::string> queries = SparseNavWorkload();
  queries.resize(12);
  queries.push_back("//needle0[needle1]");
  queries.push_back("//needle1[not(needle2)]");
  queries.push_back("//needle2[filler0]");
  queries.push_back("//needle3[filler1 or needle0]");
  return queries;
}

std::vector<std::string> DenseNavWorkload() {
  return {
      "//filler0", "//filler1", "//filler2", "//filler3",
      "//filler0/filler1", "//filler1/filler2", "//filler2/filler3",
      "//filler3/filler4",
      "//filler4/(*)*/filler5", "//filler5/(*)*/filler0",
      "//filler0 | //filler5", "//filler1/filler1",
  };
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

// Solo no-jump reference: answers and per-query traversal statistics, the
// oracle every benchmarked mode must reproduce bit-identically.
struct Reference {
  std::vector<std::vector<xml::NodeId>> answers;
  std::vector<hype::EvalStats> stats;
};

Reference SoloReference(const xml::Tree& tree, const xml::DocPlane& plane,
                        const std::vector<automata::Mfa>& mfas) {
  Reference ref;
  for (const automata::Mfa& mfa : mfas) {
    hype::HypeOptions options;
    options.plane = &plane;
    options.enable_jump = false;
    hype::HypeEvaluator solo(tree, mfa, options);
    ref.answers.push_back(solo.Eval(tree.root()));
    ref.stats.push_back(solo.stats());
  }
  return ref;
}

bool StatsMatch(const hype::EvalStats& a, const hype::EvalStats& b) {
  return a.elements_visited == b.elements_visited &&
         a.cans_vertices == b.cans_vertices && a.cans_edges == b.cans_edges &&
         a.afa_state_requests == b.afa_state_requests;
}

// Answers + traversal-statistics gate for one benchmarked evaluator run.
template <typename StatsFn>
bool GateAgainstReference(const Reference& ref,
                          const std::vector<std::vector<xml::NodeId>>& answers,
                          StatsFn stats_of, const char* what) {
  for (size_t i = 0; i < ref.answers.size(); ++i) {
    if (answers[i] != ref.answers[i]) {
      std::fprintf(stderr, "%s: answer mismatch vs solo on query %zu\n", what,
                   i);
      return false;
    }
    if (!StatsMatch(stats_of(i), ref.stats[i])) {
      std::fprintf(stderr, "%s: traversal-stats mismatch vs solo on query %zu\n",
                   what, i);
      return false;
    }
  }
  return true;
}

int BenchElements() { return 2000 * BasePatients(); }

int ShardedPoolWidth() {
  return std::max(1, std::min(4, common::ThreadPool::HardwareThreads()));
}

// ---- google-benchmark families ----

void BM_BatchTraversal(benchmark::State& state, bool jump) {
  static const xml::Tree tree = SparseDoc(BenchElements());
  static const xml::DocPlane plane = xml::DocPlane::Build(tree);
  std::vector<automata::Mfa> mfas = CompileWorkload(SparseNavWorkload());
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  hype::BatchHypeOptions options;
  options.plane = &plane;
  options.enable_jump = jump;
  hype::BatchHypeEvaluator eval(tree, ptrs, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * ptrs.size()),
      benchmark::Counter::kIsRate);
  state.counters["jumped"] =
      static_cast<double>(eval.pass_stats().positions_jumped);
}

void BM_ShardedTraversal(benchmark::State& state, bool jump) {
  static const xml::Tree tree = SparseDoc(BenchElements());
  static const xml::DocPlane plane = xml::DocPlane::Build(tree);
  std::vector<automata::Mfa> mfas = CompileWorkload(SparseNavWorkload());
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  common::ThreadPool pool(ShardedPoolWidth());
  exec::ShardedOptions options;
  options.plane = &plane;
  options.pool = &pool;
  options.enable_jump = jump;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * ptrs.size()),
      benchmark::Counter::kIsRate);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("DocPlane/BatchFullDfs",
                               [](benchmark::State& s) {
                                 BM_BatchTraversal(s, false);
                               })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("DocPlane/BatchJump",
                               [](benchmark::State& s) {
                                 BM_BatchTraversal(s, true);
                               })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("DocPlane/ShardedBaseline",
                               [](benchmark::State& s) {
                                 BM_ShardedTraversal(s, false);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("DocPlane/ShardedJump",
                               [](benchmark::State& s) {
                                 BM_ShardedTraversal(s, true);
                               })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

// ---- --smoqe_json smoke mode ----

// Times one workload in all four modes and reports them under `name/`.
//
// TransitionPlane interning: the batch evaluator here runs with
// per-engine private planes (one interning universe per engine, as before
// the shared plane existed), the sharded evaluator with one shared plane
// per query across all its shards/probes/fallback. configs_interned_batch
// is therefore the single-store total; pre-plane sharding paid
// ~shard_groups times it, the shared plane pays it once
// (configs_interned_sharded_cold) and a warm start pays nothing
// (configs_interned_sharded_warm_delta == 0, asserted).
bool RunWorkload(const xml::Tree& tree, const xml::DocPlane& plane,
                 common::ThreadPool& pool, const std::string& name,
                 const std::vector<std::string>& queries,
                 SmokeReport* report) {
  const int batch = static_cast<int>(queries.size());
  std::vector<automata::Mfa> mfas = CompileWorkload(queries);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  const Reference ref = SoloReference(tree, plane, mfas);
  int64_t configs_batch = 0;
  int64_t configs_sharded_cold = 0;
  int64_t configs_sharded_warm_delta = 0;
  int num_groups = 0;

  // Batched, full columnar DFS vs jump -- bit-identity gate before timing.
  for (bool jump : {false, true}) {
    const std::string mode = name + (jump ? "/batch_jump" : "/batch_full");
    hype::BatchHypeOptions options;
    options.plane = &plane;
    options.enable_jump = jump;
    hype::BatchHypeEvaluator eval(tree, ptrs, options);
    if (!GateAgainstReference(
            ref, eval.EvalAll(tree.root()),
            [&](size_t i) { return eval.stats(i); }, mode.c_str())) {
      return false;
    }
    if (jump) {
      for (size_t i = 0; i < mfas.size(); ++i) {
        configs_batch += eval.stats(i).configs_interned;
      }
    }
    report->metrics[mode + "_qps"] = batch / BestSecondsPerRound([&] {
      benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
    });
    if (jump) {
      int64_t walk = eval.pass_stats().nodes_walked +
                     eval.pass_stats().positions_jumped;
      // Positions jumped over the positions of a full walk.
      report->info[name + "/jumped_fraction"] =
          walk > 0 ? static_cast<double>(eval.pass_stats().positions_jumped) /
                         static_cast<double>(walk)
                   : 0.0;
    }
  }

  // Sharded over the pool: jump off reproduces the PR 3 baseline, jump on
  // is the new default.
  for (bool jump : {false, true}) {
    const std::string mode =
        name + (jump ? "/sharded_jump" : "/sharded_baseline");
    exec::ShardedOptions options;
    options.plane = &plane;
    options.pool = &pool;
    options.enable_jump = jump;
    exec::ShardedBatchEvaluator eval(tree, ptrs, options);
    if (!GateAgainstReference(
            ref, eval.EvalAll(tree.root()),
            [&](size_t i) { return eval.merged_stats(i); }, mode.c_str())) {
      return false;
    }
    if (jump) {
      // Cold total across worker engines (attribution of the shared
      // planes), then the warm-start delta of a second pass: engine
      // counters are cumulative, so any growth is a fresh insertion.
      num_groups = eval.stats().num_groups;
      for (size_t i = 0; i < mfas.size(); ++i) {
        configs_sharded_cold += eval.merged_stats(i).configs_interned;
      }
      benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
      int64_t warm_total = 0;
      for (size_t i = 0; i < mfas.size(); ++i) {
        warm_total += eval.merged_stats(i).configs_interned;
      }
      configs_sharded_warm_delta = warm_total - configs_sharded_cold;
    }
    report->metrics[mode + "_qps"] = batch / BestSecondsPerRound([&] {
      benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
    });
  }
  report->info[name + "/speedup_jump_vs_sharded_baseline"] =
      report->metrics[name + "/sharded_jump_qps"] /
      report->metrics[name + "/sharded_baseline_qps"];
  report->info[name + "/configs_interned_batch"] = configs_batch;
  report->info[name + "/shard_groups"] = num_groups;
  report->counters[name + "/configs_interned_sharded_cold"] =
      configs_sharded_cold;
  report->counters[name + "/configs_interned_sharded_warm_delta"] =
      configs_sharded_warm_delta;

  // Interning bars: warm sharded starts must insert nothing, and the cold
  // sharded pass must stay at ~one interning universe per query --
  // pre-plane it was ~num_groups of them.
  if (configs_sharded_warm_delta != 0) {
    std::fprintf(stderr,
                 "%s: FAIL: warm sharded pass interned %lld new configs\n",
                 name.c_str(),
                 static_cast<long long>(configs_sharded_warm_delta));
    return false;
  }
  if (num_groups >= 2 && configs_sharded_cold * 2 > configs_batch * 3) {
    std::fprintf(
        stderr,
        "%s: FAIL: cold sharded interning %lld exceeds 1.5x the single-store "
        "total %lld (plane sharing regressed toward per-shard stores)\n",
        name.c_str(), static_cast<long long>(configs_sharded_cold),
        static_cast<long long>(configs_batch));
    return false;
  }
  return true;
}

int RunSmoke(SmokeReport* report) {
  const xml::Tree tree = SparseDoc(BenchElements());
  const xml::DocPlane plane = xml::DocPlane::Build(tree);
  common::ThreadPool pool(ShardedPoolWidth());
  report->info["elements"] = tree.CountElements();
  report->info["pool_threads"] = pool.num_threads();
  report->info["plane_bytes"] = plane.MemoryBytes();

  if (!RunWorkload(tree, plane, pool, "sparse_nav", SparseNavWorkload(),
                   report) ||
      !RunWorkload(tree, plane, pool, "sparse_mixed", SparseMixedWorkload(),
                   report) ||
      !RunWorkload(tree, plane, pool, "dense_nav", DenseNavWorkload(),
                   report)) {
    return 1;  // bit-identity or interning gate failed
  }

  // The acceptance bar: jump mode must carry label-sparse workloads at
  // least 1.5x past the PR 3 sharded baseline.
  const double sparse_speedup =
      report->info["sparse_nav/speedup_jump_vs_sharded_baseline"];
  if (!(sparse_speedup >= 1.5)) {
    std::fprintf(stderr,
                 "FAIL: sparse_nav jump speedup %.2fx < 1.5x over the "
                 "sharded baseline\n",
                 sparse_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterAll();
  return smoqe::bench::SmokeMain(argc, argv, "docplane",
                                 smoqe::bench::RunSmoke);
}

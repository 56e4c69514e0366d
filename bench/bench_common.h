// Shared infrastructure for the SMOQE benchmark suite (Section 7 of the
// paper). Each bench binary regenerates one figure/table; see "Paper
// experiments" in BUILDING.md for the mapping and the substitutes.
//
// Documents are hospital datasets (ToXGene substitute) in ten size
// increments, mirroring the paper's 7MB..70MB series. The base increment is
// SMOQE_BENCH_PATIENTS patients (default 200; the paper's increment was
// ~10,000 -- export SMOQE_BENCH_PATIENTS=10000 to run at paper scale).

#ifndef SMOQE_BENCH_BENCH_COMMON_H_
#define SMOQE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>

#include "hype/hype.h"
#include "hype/index.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::bench {

enum Engine {
  kJaxp = 0,      // eval::XPathBaseline (JAXP/Xalan substitute)
  kHype = 1,      // hype::HypeEvaluator, no index
  kOptHype = 2,   // + full subtree-label index
  kOptHypeC = 3,  // + compressed index
  kGalax = 4,     // eval::GalaxSubstitute (XQuery-translation substitute)
  kConceptual = 5 // automata::ConceptualEvaluator (multi-pass, Section 4)
};

const char* EngineName(Engine e);

/// Patients per size increment (env SMOQE_BENCH_PATIENTS, default 200).
int BasePatients();

/// Cached hospital document with the given patient count (fixed seed).
const xml::Tree& HospitalDoc(int patients);

/// Cached index for a cached document.
const hype::SubtreeLabelIndex& IndexFor(const xml::Tree& tree,
                                        hype::SubtreeLabelIndex::Mode mode);

/// Cached columnar plane for a cached document (evaluators constructed per
/// run share it instead of rebuilding O(N) arrays each).
const xml::DocPlane& PlaneFor(const xml::Tree& tree);

/// One evaluation of `query` with `engine`; returns the answer count and,
/// when `stats` is non-null and the engine is HyPE-based, the run statistics.
int64_t RunEngineOnce(Engine engine, const std::string& query,
                      const xml::Tree& tree, hype::EvalStats* stats = nullptr);

/// Registers `figure/engine` benchmarks over the ten-increment size series.
void RegisterFigure(const std::string& figure, const std::string& query,
                    std::initializer_list<Engine> engines);

/// Wall-clock seconds of one call to `fn` (the self-timed smoke modes).
double Seconds(const std::function<void()>& fn);

/// Best-of-5 timing of `fn`, each sample batched into enough rounds to run
/// ~`sample_seconds` (single rounds are a few ms and too noisy to compare).
/// One shared sampling policy for every --smoqe_json smoke bench.
double BestSecondsPerRound(const std::function<void()>& fn,
                           double sample_seconds = 0.1);

/// What one smoke run reports. Every --smoqe_json file has the one shape
///
///   {"bench": NAME, "info": {...}, "metrics": {...}, "counters": {...}}
///
/// and each map is flat, keyed by path-style names such as
/// "batch=16/indexed=true/batched_qps". ci/check_bench_regression.py gates
/// two of the maps with no per-bench code:
///  * metrics: rates, all higher-is-better; one that falls more than 25%
///    below the baseline fails;
///  * counters: deterministic work counts; one that grows at all fails.
/// info carries everything else a run reports (scale, element counts,
/// speedups, memory); it is never gated.
struct SmokeReport {
  std::map<std::string, double> info;
  std::map<std::string, double> metrics;
  std::map<std::string, int64_t> counters;
};

/// The main() of a smoke bench. With --smoqe_json=FILE it runs `smoke` and,
/// if that returns 0 (every in-bench gate passed), writes the report to
/// FILE as bench `bench`, with info["patients"] set to BasePatients().
/// Without the flag it runs the registered google-benchmark families.
int SmokeMain(int argc, char** argv, const char* bench,
              const std::function<int(SmokeReport*)>& smoke);

}  // namespace smoqe::bench

#endif  // SMOQE_BENCH_BENCH_COMMON_H_

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

#include <functional>
#include <initializer_list>
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

}  // namespace smoqe::bench

#endif  // SMOQE_BENCH_BENCH_COMMON_H_

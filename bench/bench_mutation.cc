// Mutable documents: sustained query throughput while the document churns.
//
// One EpochPublisher owns a hospital document; reader threads continuously
// pin snapshots and evaluate a fixed query workload on them (warm
// per-reader transition-plane stores), while a writer publishes bounded
// deltas at an open-loop 90/10 read/write pacing. The numbers that matter:
//
//  * read_only_qps   -- the same readers with the writer idle (baseline);
//  * mixed_qps       -- reader throughput under concurrent writes. The
//                       acceptance bar: >= 0.7x the read-only baseline
//                       (copy-on-write epochs must not stall readers),
//                       gated on the median ratio of three alternating
//                       read-only/mixed phase pairs, since one 0.4-s pair
//                       alone spreads about as wide as the bar's margin;
//  * writes_per_sec  -- deltas actually published during the mixed phase;
//  * advances_per_sec -- standing-query delta re-evaluation rate
//                       (publisher Apply + StandingQueryEvaluator::Advance
//                       per round, warm after the first two).
//
// Two PRE-TIMING gates abort the run (exit 1) before any number is
// reported:
//  1. bit-identity -- snapshots taken DURING concurrent writes must answer
//     every workload query exactly like a from-scratch rebuild
//     (DocPlane::Build of a copy of the snapshot's tree), the incremental
//     plane must be SameAs the rebuilt one, and a standing evaluator
//     advanced through the published delta stream must end bit-identical
//     to a cold evaluation of the final epoch;
//  2. warm advance -- re-advancing over an already-seen document shape must
//     intern ZERO configurations. The count is also reported as the
//     configs_interned_warm_advance counter, which
//     ci/check_bench_regression.py gates at zero growth vs main.
//
// Modes: default = google-benchmark families (Mutation/*);
// --smoqe_json=FILE = the self-timed smoke run above (SmokeReport in
// bench_common.h). Document size scales with SMOQE_BENCH_PATIENTS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "exec/standing_query.h"
#include "hype/batch_hype.h"
#include "hype/transition_plane.h"
#include "xml/doc_plane.h"
#include "xml/plane_epoch.h"
#include "xml/tree_delta.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

std::vector<std::string> MutationWorkload() {
  return {
      "department/patient/pname",
      "//diagnosis",
      "department/patient[visit/treatment/medication]",
      "//treatment[medication and not(test)]",
      "department/patient[not(visit/treatment/test)]",
      "department/patient/(parent/patient)*"
      "[visit/treatment/medication/diagnosis/text() = 'heart disease']",
      "//doctor/specialty",
      "department/*/visit",
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

std::vector<const automata::Mfa*> Pointers(
    const std::vector<automata::Mfa>& mfas) {
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);
  return ptrs;
}

std::vector<xml::NodeId> ReachableElements(const xml::Tree& tree) {
  std::vector<xml::NodeId> out;
  std::vector<xml::NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    xml::NodeId n = stack.back();
    stack.pop_back();
    if (tree.is_element(n)) out.push_back(n);
    for (xml::NodeId c = tree.first_child(n); c != xml::kNullNode;
         c = tree.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return out;
}

// The writer's delta source: bounded edits confined to the document's
// existing label universe (relabels rotate hospital labels, inserts graft a
// small captured fragment, deletes remove a previously inserted graft), so
// the document size stays near its original and no delta ever grows the
// label set (which would force standing-query rebinds mid-measurement).
class DeltaSource {
 public:
  explicit DeltaSource(const xml::Tree& initial) : rng_(20260807) {
    // Original element ids are stable targets forever: the writer only
    // deletes its own grafts, never original content.
    targets_ = ReachableElements(initial);
    xml::NodeId donor = targets_[targets_.size() / 2];
    while (initial.CountSubtreeElements(donor) > 12) {
      donor = initial.first_child(donor) != xml::kNullNode &&
                      initial.is_element(initial.first_child(donor))
                  ? initial.first_child(donor)
                  : targets_[rng_() % targets_.size()];
    }
    graft_ = xml::Fragment::Capture(initial, donor);
  }

  xml::TreeDelta Next(const xml::PlaneEpoch& current) {
    static const char* const kLabels[] = {"patient", "visit", "treatment",
                                          "test", "medication"};
    xml::TreeDelta delta(current.version);
    const uint64_t roll = rng_() % 10;
    if (roll < 6 || (roll < 8 && grafted_.empty())) {
      delta.AddRelabel(targets_[1 + rng_() % (targets_.size() - 1)],
                       kLabels[rng_() % 5]);
    } else if (roll < 8) {
      delta.AddDelete(grafted_.back());
      grafted_.pop_back();
    } else {
      // The graft root's id is deterministic: instantiation allocates from
      // the arena end of the pre-apply tree.
      grafted_.push_back(current.tree->size());
      delta.AddInsert(targets_[rng_() % targets_.size()], 0, graft_);
    }
    return delta;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<xml::NodeId> targets_;
  std::vector<xml::NodeId> grafted_;  // roots of our inserts, newest last
  xml::Fragment graft_;
};

using Answers = std::vector<std::vector<xml::NodeId>>;

Answers EvalOn(const xml::Tree& tree, const xml::DocPlane& plane,
               const std::vector<const automata::Mfa*>& ptrs,
               hype::TransitionPlaneStore* store) {
  hype::BatchHypeOptions options;
  options.plane = &plane;
  options.plane_store = store;
  hype::BatchHypeEvaluator eval(tree, ptrs, options);
  return eval.EvalAll(tree.root());
}

// Gate 1: snapshots taken while a writer publishes must be bit-identical
// to full rebuilds, and delta re-evaluation must track cold evaluation.
bool BitIdentityGate(const xml::Tree& initial,
                     const std::vector<const automata::Mfa*>& ptrs) {
  xml::EpochPublisher publisher{xml::Tree(initial)};
  exec::StandingQueryEvaluator standing(publisher.Snapshot(), ptrs);

  constexpr int kWrites = 48;
  std::vector<xml::TreeDelta> published;
  std::mutex published_mu;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    DeltaSource source(*publisher.Snapshot().tree);
    for (int i = 0; i < kWrites; ++i) {
      xml::TreeDelta delta = source.Next(publisher.Snapshot());
      if (!publisher.Apply(delta).ok()) {
        std::fprintf(stderr, "gate: writer delta %d rejected\n", i);
        break;
      }
      {
        std::lock_guard<std::mutex> lock(published_mu);
        published.push_back(std::move(delta));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Concurrent checker: every snapshot must read like a frozen document.
  bool ok = true;
  int checks = 0;
  while (!writer_done.load(std::memory_order_acquire) || checks == 0) {
    xml::PlaneEpoch snap = publisher.Snapshot();
    xml::Tree copy = *snap.tree;
    xml::DocPlane rebuilt = xml::DocPlane::Build(copy);
    if (!snap.plane->SameAs(rebuilt)) {
      std::fprintf(stderr,
                   "gate: snapshot v%llu plane != full rebuild (SameAs)\n",
                   static_cast<unsigned long long>(snap.version));
      ok = false;
      break;
    }
    hype::TransitionPlaneStore snap_store(*snap.tree, nullptr);
    hype::TransitionPlaneStore copy_store(copy, nullptr);
    if (EvalOn(*snap.tree, *snap.plane, ptrs, &snap_store) !=
        EvalOn(copy, rebuilt, ptrs, &copy_store)) {
      std::fprintf(stderr,
                   "gate: snapshot v%llu answers != full-rebuild answers\n",
                   static_cast<unsigned long long>(snap.version));
      ok = false;
      break;
    }
    ++checks;
  }
  writer.join();
  if (!ok) return false;

  // Replay the published stream through the standing evaluator; the final
  // answer sets must be bit-identical to a cold pass on the final epoch.
  xml::PlaneEpoch prev = standing.epoch();
  for (const xml::TreeDelta& delta : published) {
    // Reconstruct each intermediate epoch from the previous one (the
    // publisher only exposes the latest).
    xml::Tree next_tree = *prev.tree;
    xml::DocPlane::Maintainer maintainer(*prev.plane);
    if (!delta.ApplyTo(&next_tree, &maintainer).ok()) {
      std::fprintf(stderr, "gate: replay apply failed\n");
      return false;
    }
    xml::PlaneEpoch next;
    xml::DocPlane next_plane = maintainer.Take(next_tree);
    next.tree = std::make_shared<const xml::Tree>(std::move(next_tree));
    next.plane = std::make_shared<const xml::DocPlane>(std::move(next_plane));
    next.version = delta.to_version();
    if (!standing.Advance(next, delta).ok()) {
      std::fprintf(stderr, "gate: standing advance failed\n");
      return false;
    }
    prev = next;
  }
  hype::TransitionPlaneStore cold_store(*prev.tree, nullptr);
  Answers cold = EvalOn(*prev.tree, *prev.plane, ptrs, &cold_store);
  for (size_t q = 0; q < ptrs.size(); ++q) {
    if (standing.answers(q) != cold[q]) {
      std::fprintf(stderr,
                   "gate: standing answers != cold eval on query %zu after "
                   "%zu advances\n",
                   q, published.size());
      return false;
    }
  }
  std::printf("bit-identity gate: %d concurrent snapshots and %zu standing "
              "advances all matched full rebuilds\n",
              checks, published.size());
  return true;
}

// Gate 2: the third advance over a flip-flopped shape interns nothing.
bool WarmAdvanceGate(const xml::Tree& initial,
                     const std::vector<const automata::Mfa*>& ptrs,
                     int64_t* warm_interned) {
  xml::EpochPublisher publisher{xml::Tree(initial)};
  exec::StandingQueryEvaluator standing(publisher.Snapshot(), ptrs);
  xml::NodeId target = xml::kNullNode;
  {
    const xml::Tree& tree = *publisher.Snapshot().tree;
    for (xml::NodeId n : ReachableElements(tree)) {
      if (tree.label_name(n) == "test") {
        target = n;
        break;
      }
    }
  }
  if (target == xml::kNullNode) {
    std::fprintf(stderr, "warm gate: no relabel target found\n");
    return false;
  }
  const char* const labels[] = {"medication", "test", "medication"};
  exec::AdvanceStats stats;
  for (int round = 0; round < 3; ++round) {
    xml::TreeDelta delta(publisher.version());
    delta.AddRelabel(target, labels[round]);
    if (!publisher.Apply(delta).ok() ||
        !standing.Advance(publisher.Snapshot(), delta, &stats).ok()) {
      std::fprintf(stderr, "warm gate: advance %d failed\n", round);
      return false;
    }
  }
  *warm_interned = stats.configs_interned;
  if (stats.configs_interned != 0) {
    std::fprintf(stderr,
                 "FAIL: warm advance interned %lld configs (must be 0)\n",
                 static_cast<long long>(stats.configs_interned));
    return false;
  }
  std::printf("warm-advance gate: third advance over a seen shape interned "
              "0 configs\n");
  return true;
}

int ReaderThreads() {
  return std::max(1, std::min(3, common::ThreadPool::HardwareThreads() - 1));
}

// Readers pin snapshots and evaluate the workload until `stop`; returns
// queries answered. Per-reader warm store pinned to a base epoch (valid
// while the label universe is fixed -- DeltaSource guarantees that).
double TimedReaderPhase(xml::EpochPublisher& publisher,
                        const std::vector<const automata::Mfa*>& ptrs,
                        double seconds, std::atomic<bool>& stop,
                        int64_t* queries_answered) {
  const int num_readers = ReaderThreads();
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> readers;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      xml::PlaneEpoch base = publisher.Snapshot();
      hype::TransitionPlaneStore store(*base.tree, nullptr);
      while (!stop.load(std::memory_order_relaxed)) {
        xml::PlaneEpoch snap = publisher.Snapshot();
        benchmark::DoNotOptimize(EvalOn(*snap.tree, *snap.plane, ptrs, &store));
        answered.fetch_add(static_cast<int64_t>(ptrs.size()),
                           std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *queries_answered = answered.load();
  return elapsed;
}

// Reader throughput with the writer idle: queries per second.
double ReadOnlyPhase(const xml::Tree& doc,
                     const std::vector<const automata::Mfa*>& ptrs,
                     double seconds) {
  xml::EpochPublisher publisher{xml::Tree(doc)};
  std::atomic<bool> stop{false};
  int64_t answered = 0;
  const double elapsed =
      TimedReaderPhase(publisher, ptrs, seconds, stop, &answered);
  return static_cast<double>(answered) / elapsed;
}

struct MixedResult {
  double qps = 0;
  double writes_per_sec = 0;
};

// The mixed 90/10 open-loop phase. A read OP is one reader round-trip (pin a
// snapshot, evaluate the whole workload batch); a write OP is one published
// delta. The writer paces itself off `read_only_qps` so writes are 10% of
// the op stream -- one write per nine round-trips' worth of wall time --
// issued on the clock regardless of reader progress (open loop).
MixedResult MixedPhase(const xml::Tree& doc,
                       const std::vector<const automata::Mfa*>& ptrs,
                       double seconds, double read_only_qps) {
  xml::EpochPublisher publisher{xml::Tree(doc)};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> writes{0};
  const double rounds_per_sec =
      read_only_qps / static_cast<double>(ptrs.size());
  const double write_interval_s =
      rounds_per_sec > 0 ? 9.0 / rounds_per_sec : 1e-3;
  std::thread writer([&] {
    DeltaSource source(*publisher.Snapshot().tree);
    auto next_due = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      next_due +=
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(write_interval_s));
      std::this_thread::sleep_until(next_due);
      if (stop.load(std::memory_order_relaxed)) break;
      if (publisher.Apply(source.Next(publisher.Snapshot())).ok()) {
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  int64_t answered = 0;
  const double elapsed =
      TimedReaderPhase(publisher, ptrs, seconds, stop, &answered);
  writer.join();
  MixedResult result;
  result.qps = static_cast<double>(answered) / elapsed;
  result.writes_per_sec = static_cast<double>(writes.load()) / elapsed;
  return result;
}

// The middle value of an odd-sized sample.
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int RunSmoke(SmokeReport* report) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  std::vector<automata::Mfa> mfas = CompileWorkload(MutationWorkload());
  std::vector<const automata::Mfa*> ptrs = Pointers(mfas);

  // ---- pre-timing gates ----
  int64_t warm_interned = -1;
  if (!BitIdentityGate(doc, ptrs) ||
      !WarmAdvanceGate(doc, ptrs, &warm_interned)) {
    return 1;
  }

  // ---- read-only baseline vs mixed 90/10, three alternating pairs ----
  // Each mixed phase paces its writes off its own pair's read-only qps; the
  // reported rates and the gated ratio are medians over the pairs.
  constexpr int kPairs = 3;
  const double phase_seconds = 0.4;
  std::vector<double> read_only, mixed, writes, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const double ro = ReadOnlyPhase(doc, ptrs, phase_seconds);
    const MixedResult mx = MixedPhase(doc, ptrs, phase_seconds, ro);
    read_only.push_back(ro);
    mixed.push_back(mx.qps);
    writes.push_back(mx.writes_per_sec);
    ratios.push_back(ro > 0 ? mx.qps / ro : 0.0);
    std::printf("pair %d: read-only %.0f qps, mixed %.0f qps (%.2fx), "
                "%.0f writes/s\n",
                pair + 1, ro, mx.qps, ratios.back(), mx.writes_per_sec);
  }
  const double read_only_qps = Median(read_only);
  const double mixed_qps = Median(mixed);
  const double writes_per_sec = Median(writes);
  const double ratio = Median(ratios);

  // ---- standing-query advance rate ----
  double advances_per_sec = 0;
  {
    xml::EpochPublisher publisher{xml::Tree(doc)};
    exec::StandingQueryEvaluator standing(publisher.Snapshot(), ptrs);
    DeltaSource source(*publisher.Snapshot().tree);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(300);
    int64_t advances = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      xml::TreeDelta delta = source.Next(publisher.Snapshot());
      if (!publisher.Apply(delta).ok() ||
          !standing.Advance(publisher.Snapshot(), delta).ok()) {
        std::fprintf(stderr, "advance loop failed\n");
        return 1;
      }
      ++advances;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    advances_per_sec = static_cast<double>(advances) / elapsed;
  }

  report->info["elements"] = doc.CountElements();
  report->info["reader_threads"] = ReaderThreads();
  report->info["mixed_over_read_only"] = ratio;
  report->metrics["read_only_qps"] = read_only_qps;
  report->metrics["mixed_qps"] = mixed_qps;
  report->metrics["writes_per_sec"] = writes_per_sec;
  report->metrics["advances_per_sec"] = advances_per_sec;
  report->counters["configs_interned_warm_advance"] = warm_interned;

  // The acceptance bar: concurrent writes may cost readers at most 30%.
  if (ratio < 0.7) {
    std::fprintf(stderr,
                 "FAIL: mixed qps is %.2fx of the read-only baseline in the "
                 "median pair (bar: >= 0.7x)\n",
                 ratio);
    return 1;
  }
  return 0;
}

// ---- google-benchmark families ----

void BM_WarmAdvance(benchmark::State& state) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  std::vector<automata::Mfa> mfas = CompileWorkload(MutationWorkload());
  std::vector<const automata::Mfa*> ptrs = Pointers(mfas);
  xml::EpochPublisher publisher{xml::Tree(doc)};
  exec::StandingQueryEvaluator standing(publisher.Snapshot(), ptrs);
  DeltaSource source(*publisher.Snapshot().tree);
  for (auto _ : state) {
    xml::TreeDelta delta = source.Next(publisher.Snapshot());
    if (!publisher.Apply(delta).ok() ||
        !standing.Advance(publisher.Snapshot(), delta).ok()) {
      state.SkipWithError("apply/advance failed");
      return;
    }
  }
  state.counters["advances_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_PublishOnly(benchmark::State& state) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  xml::EpochPublisher publisher{xml::Tree(doc)};
  DeltaSource source(*publisher.Snapshot().tree);
  for (auto _ : state) {
    if (!publisher.Apply(source.Next(publisher.Snapshot())).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
  }
  state.counters["writes_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("Mutation/WarmAdvance", BM_WarmAdvance)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Mutation/PublishOnly", BM_PublishOnly)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterAll();
  return smoqe::bench::SmokeMain(argc, argv, "mutation",
                                 smoqe::bench::RunSmoke);
}

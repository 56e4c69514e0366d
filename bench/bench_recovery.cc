// Durable epochs: what crash safety costs, and what recovery buys.
//
// Three figures (PR 9):
//
//  * recoveries_per_sec vs reparses_per_sec -- a cold storage::Recover
//    (newest checksummed snapshot + WAL replay + DocPlane rebuild) against
//    the non-durable alternative of re-parsing the serialized document and
//    rebuilding its plane from scratch. Both are higher-is-better rates so
//    the regression gate can watch them drift independently.
//  * inmemory_mixed_qps vs durable_mixed_qps -- a 90/10 query/write op
//    stream served by the in-memory pair (QueryService reads + raw
//    EpochPublisher writes) against the durable QueryService (same reads;
//    every write WAL-appended, fsynced, and published through the
//    DurableEpochStore). The acceptance bar, enforced here after the gate:
//    durable throughput >= 0.5x in-memory (crash safety may cost at most
//    half).
//
// One PRE-TIMING gate aborts the run (exit 1) before any number is
// reported: a store that applied a randomized delta stream is re-opened
// cold, and the recovered epoch must be bit-identical to the last published
// one -- WriteXml byte-for-byte (NodeId-exact arena recovery implies
// answer-identity for every query), the recovered DocPlane SameAs a
// from-scratch Build, and the recovered version equal to the published
// version. The gate also re-checks the store's own failure counters: a
// healthy run must finish with zero rollbacks and zero failed compactions
// (reported as counters; ci/check_bench_regression.py gates them at zero
// growth vs main).
//
// Modes: default = google-benchmark families (Recovery/*);
// --smoqe_json=FILE = the self-timed smoke run above (SmokeReport in
// bench_common.h). Document size scales with SMOQE_BENCH_PATIENTS.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/query_service.h"
#include "storage/durable_epoch.h"
#include "storage/fs.h"
#include "xml/doc_plane.h"
#include "xml/parser.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"
#include "xml/writer.h"

namespace smoqe::bench {
namespace {

std::vector<std::string> RecoveryWorkload() {
  return {
      "department/patient/pname",
      "//diagnosis",
      "department/patient[visit/treatment/medication]",
      "//treatment[medication and not(test)]",
      "//doctor/specialty",
      "department/*/visit",
  };
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

// Relabel-only delta source: original element ids are valid targets at
// every version and the document never changes size, so the same source
// can drive a store, a publisher, and a durable service interchangeably.
class RelabelSource {
 public:
  explicit RelabelSource(const xml::Tree& initial, uint64_t seed)
      : rng_(seed), targets_(ReachableElements(initial)) {}

  xml::TreeDelta Next(uint64_t from_version) {
    static const char* const kLabels[] = {"patient", "visit", "treatment",
                                          "test", "medication"};
    xml::TreeDelta delta(from_version);
    delta.AddRelabel(targets_[1 + rng_() % (targets_.size() - 1)],
                     kLabels[rng_() % 5]);
    return delta;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<xml::NodeId> targets_;
};

std::string FreshDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/smoqe_bench_recovery_" + name;
  if (!storage::EnsureDir(dir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    std::exit(1);
  }
  auto names = storage::ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : names.value()) {
      (void)storage::RemoveFile(dir + "/" + f);
    }
  }
  return dir;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The gate: a cold reopen of a store that lived through a delta stream
// (with compactions) must reproduce the published epoch exactly. Leaves a
// populated storage directory behind for the timing phases.
bool RecoveryBitIdentityGate(const xml::Tree& doc, const std::string& dir,
                             int64_t* bytes_truncated) {
  storage::StorageOptions options;
  options.snapshot_every = 24;  // several compactions + a live WAL suffix
  constexpr int kWrites = 64;

  std::string published_xml;
  uint64_t published_version = 0;
  int64_t snapshots_written = 0;
  {
    auto store = storage::DurableEpochStore::Open(dir, options, xml::Tree(doc));
    if (!store.ok()) {
      std::fprintf(stderr, "gate: open failed: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    RelabelSource source(doc, 20260807);
    for (int i = 0; i < kWrites; ++i) {
      if (!store.value()->Apply(source.Next(store.value()->version())).ok()) {
        std::fprintf(stderr, "gate: apply %d rejected\n", i);
        return false;
      }
    }
    auto stats = store.value()->stats();
    if (stats.wal_rollbacks != 0 || stats.compactions_failed != 0) {
      std::fprintf(stderr, "gate: healthy run had %lld rollbacks / %lld "
                   "failed compactions\n",
                   static_cast<long long>(stats.wal_rollbacks),
                   static_cast<long long>(stats.compactions_failed));
      return false;
    }
    snapshots_written = stats.snapshots_written;
    xml::PlaneEpoch epoch = store.value()->Snapshot();
    published_xml = xml::WriteXml(*epoch.tree);
    published_version = epoch.version;
  }  // store dropped: only the files survive, as after a crash

  auto reopened = storage::DurableEpochStore::Open(dir, options, xml::Tree());
  if (!reopened.ok()) {
    std::fprintf(stderr, "gate: cold reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    return false;
  }
  xml::PlaneEpoch recovered = reopened.value()->Snapshot();
  *bytes_truncated = reopened.value()->recovery_report().bytes_truncated;
  if (recovered.version != published_version) {
    std::fprintf(stderr, "gate: recovered v%llu != published v%llu\n",
                 static_cast<unsigned long long>(recovered.version),
                 static_cast<unsigned long long>(published_version));
    return false;
  }
  if (xml::WriteXml(*recovered.tree) != published_xml) {
    std::fprintf(stderr, "gate: recovered document differs byte-for-byte\n");
    return false;
  }
  if (!recovered.plane->SameAs(xml::DocPlane::Build(*recovered.tree))) {
    std::fprintf(stderr, "gate: recovered plane != from-scratch Build\n");
    return false;
  }
  std::printf("recovery bit-identity gate: cold reopen reproduced v%llu "
              "byte-for-byte (%d writes, %lld snapshots)\n",
              static_cast<unsigned long long>(published_version), kWrites,
              static_cast<long long>(snapshots_written));
  return true;
}

// Phase 1: cold recovery rate vs parse-and-rebuild rate over the SAME
// final document.
void TimeColdStart(const std::string& dir, double* recoveries_per_sec,
                   double* reparses_per_sec) {
  constexpr double kPhaseSeconds = 0.3;
  std::string xml_text;
  {
    storage::RecoveryReport report;
    auto epoch = storage::Recover(dir, &report);
    if (!epoch.ok()) {
      std::fprintf(stderr, "cold start: recover failed\n");
      std::exit(1);
    }
    xml_text = xml::WriteXml(*epoch.value().tree);
  }

  int64_t recoveries = 0;
  auto start = std::chrono::steady_clock::now();
  while (Seconds(start) < kPhaseSeconds) {
    auto epoch = storage::Recover(dir, nullptr);
    if (!epoch.ok()) std::exit(1);
    benchmark::DoNotOptimize(epoch.value().version);
    ++recoveries;
  }
  *recoveries_per_sec = static_cast<double>(recoveries) / Seconds(start);

  int64_t reparses = 0;
  start = std::chrono::steady_clock::now();
  while (Seconds(start) < kPhaseSeconds) {
    auto parsed = xml::ParseXml(xml_text);
    if (!parsed.ok()) std::exit(1);
    xml::DocPlane plane = xml::DocPlane::Build(parsed.value());
    benchmark::DoNotOptimize(plane.size());
    ++reparses;
  }
  *reparses_per_sec = static_cast<double>(reparses) / Seconds(start);
}

// Phase 2: the 90/10 mixed op stream. Reads go through a QueryService in
// both configurations; writes go through a raw EpochPublisher (in-memory)
// or QueryService::Apply (durable: WAL append + fsync + publish + epoch
// swap). Returns ops/sec.
double MixedPhaseInMemory(const xml::Tree& doc,
                          const std::vector<std::string>& workload) {
  constexpr double kPhaseSeconds = 0.4;
  exec::QueryServiceOptions options;
  options.num_threads = 2;
  exec::QueryService service(doc, options);
  xml::EpochPublisher publisher{xml::Tree(doc)};
  RelabelSource source(doc, 7);
  int64_t ops = 0;
  auto start = std::chrono::steady_clock::now();
  while (Seconds(start) < kPhaseSeconds) {
    if (ops % 10 == 9) {
      if (!publisher.Apply(source.Next(publisher.version())).ok()) {
        std::fprintf(stderr, "in-memory publish failed\n");
        std::exit(1);
      }
    } else {
      auto answer = service.Query(workload[ops % workload.size()]);
      if (!answer.ok()) std::exit(1);
      benchmark::DoNotOptimize(answer.value().size());
    }
    ++ops;
  }
  return static_cast<double>(ops) / Seconds(start);
}

double MixedPhaseDurable(const xml::Tree& doc,
                         const std::vector<std::string>& workload,
                         const std::string& dir,
                         storage::DurableEpochStore::Stats* stats_out) {
  constexpr double kPhaseSeconds = 0.4;
  exec::QueryServiceOptions options;
  options.num_threads = 2;
  options.storage_dir = dir;
  options.snapshot_every = 64;
  auto service = exec::QueryService::Open(xml::Tree(doc), options);
  if (!service.ok()) {
    std::fprintf(stderr, "durable open failed: %s\n",
                 service.status().ToString().c_str());
    std::exit(1);
  }
  RelabelSource source(doc, 7);
  int64_t ops = 0;
  auto start = std::chrono::steady_clock::now();
  while (Seconds(start) < kPhaseSeconds) {
    if (ops % 10 == 9) {
      if (!service.value()
               ->Apply(source.Next(service.value()->document_version()))
               .ok()) {
        std::fprintf(stderr, "durable apply failed\n");
        std::exit(1);
      }
    } else {
      auto answer = service.value()->Query(workload[ops % workload.size()]);
      if (!answer.ok()) std::exit(1);
      benchmark::DoNotOptimize(answer.value().size());
    }
    ++ops;
  }
  *stats_out = service.value()->storage()->stats();
  return static_cast<double>(ops) / Seconds(start);
}

int RunSmoke(SmokeReport* report) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  const std::vector<std::string> workload = RecoveryWorkload();

  // ---- pre-timing gate ----
  const std::string gate_dir = FreshDir("gate");
  int64_t bytes_truncated = -1;
  if (!RecoveryBitIdentityGate(doc, gate_dir, &bytes_truncated)) return 1;

  // ---- cold start: recover vs reparse ----
  double recoveries_per_sec = 0;
  double reparses_per_sec = 0;
  TimeColdStart(gate_dir, &recoveries_per_sec, &reparses_per_sec);

  // ---- mixed 90/10: in-memory vs durable ----
  const double inmemory_qps = MixedPhaseInMemory(doc, workload);
  storage::DurableEpochStore::Stats durable_stats;
  const double durable_qps =
      MixedPhaseDurable(doc, workload, FreshDir("mixed"), &durable_stats);
  const double ratio = inmemory_qps > 0 ? durable_qps / inmemory_qps : 0.0;

  report->info["elements"] = doc.CountElements();
  report->info["durable_over_inmemory"] = ratio;
  report->metrics["recoveries_per_sec"] = recoveries_per_sec;
  report->metrics["reparses_per_sec"] = reparses_per_sec;
  report->metrics["inmemory_mixed_qps"] = inmemory_qps;
  report->metrics["durable_mixed_qps"] = durable_qps;
  report->counters["wal_rollbacks"] = durable_stats.wal_rollbacks;
  report->counters["compactions_failed"] = durable_stats.compactions_failed;
  report->counters["recovery_bytes_truncated"] = bytes_truncated;

  // The acceptance bar: full crash safety (a WAL append + fsync on every
  // write, epoch swap on publish) may cost at most half the mixed
  // throughput of the non-durable configuration.
  if (ratio < 0.5) {
    std::fprintf(stderr,
                 "FAIL: durable mixed throughput is %.2fx of in-memory "
                 "(bar: >= 0.5x)\n",
                 ratio);
    return 1;
  }
  return 0;
}

// ---- google-benchmark families ----

void BM_ColdRecover(benchmark::State& state) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  const std::string dir = FreshDir("bm_recover");
  storage::StorageOptions options;
  options.snapshot_every = 24;
  {
    auto store = storage::DurableEpochStore::Open(dir, options, xml::Tree(doc));
    if (!store.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    RelabelSource source(doc, 42);
    for (int i = 0; i < 64; ++i) {
      if (!store.value()->Apply(source.Next(store.value()->version())).ok()) {
        state.SkipWithError("apply failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    auto epoch = storage::Recover(dir, nullptr);
    if (!epoch.ok()) {
      state.SkipWithError("recover failed");
      return;
    }
    benchmark::DoNotOptimize(epoch.value().version);
  }
  state.counters["recoveries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_DurableApply(benchmark::State& state) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  const std::string dir = FreshDir("bm_apply");
  storage::StorageOptions options;
  options.snapshot_every = 1 << 20;  // time the WAL path, not compaction
  auto store = storage::DurableEpochStore::Open(dir, options, xml::Tree(doc));
  if (!store.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  RelabelSource source(doc, 42);
  for (auto _ : state) {
    if (!store.value()->Apply(source.Next(store.value()->version())).ok()) {
      state.SkipWithError("apply failed");
      return;
    }
  }
  state.counters["writes_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("Recovery/ColdRecover", BM_ColdRecover)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Recovery/DurableApply", BM_DurableApply)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterAll();
  return smoqe::bench::SmokeMain(argc, argv, "recovery",
                                 smoqe::bench::RunSmoke);
}

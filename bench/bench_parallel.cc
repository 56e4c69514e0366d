// Parallel serving throughput: queries/sec of the sharded shared pass
// (exec::ShardedBatchEvaluator) versus pool width 1/2/4/8, and of the full
// QueryService front-end versus concurrent client count 1..64 -- the
// serving-scenario companion to bench_throughput's single-threaded batching
// figures.
//
// Two modes:
//  * default: google-benchmark binary (Sharded/* and Service/* families);
//  * --smoqe_json=FILE: a short self-timed smoke run reporting queries/sec
//    per thread count and per client count (SmokeReport in
//    bench_common.h). Every sharded timing is preceded by a bit-identity
//    check against the solo BatchHypeEvaluator; a mismatch aborts the run.
//    Combine with SMOQE_BENCH_PATIENTS to shrink the document.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "exec/query_service.h"
#include "exec/sharded_eval.h"
#include "hype/batch_hype.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

// The bench_throughput workload shapes, reduced to a fixed 64-query server
// mix (filters, recursion, navigation, unions) -- distinct queries, so
// neither batching nor sharding gets sharing the baseline would not have.
std::vector<std::string> MakeWorkload(int n) {
  static const char* const kCities[] = {"Edinburgh", "Istanbul", "Antwerp",
                                        "Madison"};
  static const char* const kSpecialties[] = {"cardiology", "neurology",
                                             "oncology", "pediatrics"};
  static const char* const kTemplates[] = {
      "department/patient/pname",
      "department/patient/visit/date",
      "//diagnosis",
      "//pname",
      "department/patient/visit/treatment/medication/type",
      "department/patient/(parent | sibling)/patient/visit/date",
      "department/*/pname",
      "department/patient/visit/(date | doctor/dname)",
  };
  std::vector<std::string> queries;
  int i = 0;
  while (static_cast<int>(queries.size()) < n) {
    const int round = i / 8;
    const std::string city = kCities[(i + round) % 4];
    const std::string spec = kSpecialties[(i + round) % 4];
    const std::string med = "med-" + std::to_string(1 + i % 50);
    switch (i % 8) {
      case 0:
        queries.push_back("department/patient[address/city/text() = '" + city +
                          "']" + (round % 2 == 0 ? "/pname" : "/visit/date"));
        break;
      case 1:
        queries.push_back(
            "department/patient/visit/treatment/medication[type/text() = '" +
            med + "']");
        break;
      case 2:
        queries.push_back("//doctor[specialty/text() = '" + spec + "']" +
                          std::string(round % 2 == 0 ? "" : "/dname"));
        break;
      case 3:
        queries.push_back("department/patient/(parent/patient)*"
                          "[address/city/text() = '" +
                          city + "']/pname");
        break;
      default:
        queries.push_back(kTemplates[(i + round) % 8]);
        break;
    }
    ++i;
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

// Fans `clients` threads out against `service`, each submitting
// `per_client` workload queries and collecting its futures. Returns the
// number of failed answers. Shared by the gbench family and the JSON smoke
// so both measure identical client behavior.
int RunClients(exec::QueryService& service,
               const std::vector<std::string>& workload, int clients,
               int per_client) {
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<exec::QueryService::Answer>> inflight;
      inflight.reserve(per_client);
      for (int q = 0; q < per_client; ++q) {
        inflight.push_back(service.Submit(
            workload[(c * per_client + q) % workload.size()]));
      }
      for (auto& f : inflight) {
        if (!f.get().ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return errors.load();
}

// ---- google-benchmark families ----

void BM_ShardedEval(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int threads = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);

  common::ThreadPool pool(threads);
  exec::ShardedOptions options;
  options.plane = &PlaneFor(tree);
  options.pool = &pool;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  int64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const auto& result : eval.EvalAll(tree.root())) {
      answers += static_cast<int64_t>(result.size());
    }
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["units"] = static_cast<double>(eval.stats().num_units);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_SoloBaseline(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int batch = static_cast<int>(state.range(0));
  std::vector<automata::Mfa> mfas = CompileWorkload(MakeWorkload(batch));
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);
  hype::BatchHypeOptions options;
  options.plane = &PlaneFor(tree);
  hype::BatchHypeEvaluator eval(tree, ptrs, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}

void BM_Service(benchmark::State& state) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  const int clients = static_cast<int>(state.range(0));
  const std::vector<std::string> workload = MakeWorkload(64);
  exec::QueryServiceOptions options;
  options.plane = &PlaneFor(tree);
  options.max_batch = 16;
  options.max_delay = std::chrono::microseconds(200);
  exec::QueryService service(tree, options);
  constexpr int kQueriesPerClient = 16;

  for (auto _ : state) {
    if (RunClients(service, workload, clients, kQueriesPerClient) != 0) {
      state.SkipWithError("service returned errors");
      break;
    }
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * clients * kQueriesPerClient,
      benchmark::Counter::kIsRate);
}

void RegisterAll() {
  auto* sharded =
      benchmark::RegisterBenchmark("Sharded/Eval", BM_ShardedEval);
  sharded->ArgNames({"threads", "batch"})->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (int threads : {1, 2, 4, 8}) sharded->Args({threads, 64});

  auto* solo = benchmark::RegisterBenchmark("Sharded/SoloBaseline",
                                            BM_SoloBaseline);
  solo->ArgNames({"batch"})->Unit(benchmark::kMillisecond);
  solo->Args({64});

  auto* service = benchmark::RegisterBenchmark("Service/Clients", BM_Service);
  service->ArgNames({"clients"})->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (int clients : {1, 4, 16, 64}) service->Args({clients});
}

// ---- --smoqe_json smoke mode ----

int RunSmoke(SmokeReport* report) {
  const xml::Tree& tree = HospitalDoc(BasePatients());
  constexpr int kBatch = 64;
  const std::vector<std::string> workload = MakeWorkload(kBatch);
  std::vector<automata::Mfa> mfas = CompileWorkload(workload);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& mfa : mfas) ptrs.push_back(&mfa);
  report->info["elements"] = tree.CountElements();
  report->info["hardware_threads"] = common::ThreadPool::HardwareThreads();
  report->info["batch"] = kBatch;

  // Solo baseline: the single-threaded batched pass.
  hype::BatchHypeOptions solo_options;
  solo_options.plane = &PlaneFor(tree);
  hype::BatchHypeEvaluator solo(tree, ptrs, solo_options);
  std::vector<std::vector<xml::NodeId>> expected = solo.EvalAll(tree.root());
  const double solo_qps = kBatch / BestSecondsPerRound([&] {
    benchmark::DoNotOptimize(solo.EvalAll(tree.root()));
  });
  report->metrics["solo_qps"] = solo_qps;

  for (int threads : {1, 2, 4, 8}) {
    common::ThreadPool pool(threads);
    exec::ShardedOptions options;
    options.plane = &PlaneFor(tree);
    options.pool = &pool;
    exec::ShardedBatchEvaluator eval(tree, ptrs, options);
    // Bit-identity gate before timing: the sharded pass must reproduce the
    // solo answers exactly.
    if (eval.EvalAll(tree.root()) != expected) {
      std::fprintf(stderr, "sharded/solo mismatch at %d threads\n", threads);
      return 1;
    }
    double qps = kBatch / BestSecondsPerRound([&] {
      benchmark::DoNotOptimize(eval.EvalAll(tree.root()));
    });
    const std::string key = "sharded/threads=" + std::to_string(threads);
    report->metrics[key + "/qps"] = qps;
    report->info[key + "/units"] = eval.stats().num_units;
    report->info[key + "/groups"] = eval.stats().num_groups;
    report->info[key + "/speedup_vs_solo"] = qps / solo_qps;
  }

  for (int clients : {1, 8, 32, 64}) {
    exec::QueryServiceOptions options;
    options.plane = &PlaneFor(tree);
    options.max_batch = 16;
    options.max_delay = std::chrono::microseconds(200);
    exec::QueryService service(tree, options);
    constexpr int kQueriesPerClient = 8;
    std::atomic<int> errors{0};
    double secs = BestSecondsPerRound([&] {
      errors += RunClients(service, workload, clients, kQueriesPerClient);
    });
    if (errors.load() != 0) {
      std::fprintf(stderr, "service errors at %d clients\n", clients);
      return 1;
    }
    // The admission/cache counters of everything this configuration
    // served: how batches closed, compile-cache efficiency, and same-MFA
    // coalescing. The smoke workload carries no deadlines or cancellations,
    // so any timed-out, shed, cancelled or retried query is the overload
    // machinery misfiring: those four are gated counters.
    const exec::QueryServiceStats st = service.stats();
    const std::string key = "service/clients=" + std::to_string(clients);
    report->metrics[key + "/qps"] = clients * kQueriesPerClient / secs;
    report->info[key + "/batches"] = st.batches;
    report->info[key + "/batches_full"] = st.batches_full;
    report->info[key + "/batches_aged"] = st.batches_aged;
    report->info[key + "/cache_hits"] = st.cache.hits;
    report->info[key + "/cache_misses"] = st.cache.misses;
    report->info[key + "/coalesced"] = st.coalesced_duplicates;
    report->counters[key + "/queries_timed_out"] = st.queries_timed_out;
    report->counters[key + "/queries_shed"] = st.queries_shed;
    report->counters[key + "/queries_cancelled"] = st.queries_cancelled;
    report->counters[key + "/queries_retried"] = st.queries_retried;
  }
  return 0;
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterAll();
  return smoqe::bench::SmokeMain(argc, argv, "parallel",
                                 smoqe::bench::RunSmoke);
}

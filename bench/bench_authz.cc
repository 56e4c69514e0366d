// Multi-tenant security-view serving: per-role compiled rewritings vs the
// naive materialize-then-evaluate baseline (ISSUE 8 / the paper's security
// application, Section 2).
//
// One hospital document, N roles (N swept 100 -> SMOQE_BENCH_ROLES, default
// 1000; nightly runs 10000) with randomized deny/cond/allow annotations over
// the hospital DTD. Per sweep point:
//
//  * compile_ms_per_role -- cold RoleCatalog::Acquire over ALL N roles
//    (annotation resolution + view derivation + per-role cache/plane
//    partition construction), amortized;
//  * warm_qps            -- role-scoped queries through a QueryService whose
//    catalog partitions are warm: the (role, query) rewriting is cached and
//    the role's transition planes are populated, so a query is one shared
//    evaluation over the SOURCE document;
//  * materialize_qps     -- the same (role, query) pairs answered the naive
//    way: view::Materialize(sigma_R(T)) then NaiveEvaluator on the copy,
//    mapped back through the binding. This is what a system without query
//    rewriting must do (or pay N materialized copies of resident memory);
//  * plane_bytes / resident_roles -- catalog plane-store memory after the
//    warm phase (the price of keeping a role hot). plane_bytes is the sum
//    of TransitionPlane::ApproxBytes(): the heap blocks the planes have
//    allocated, unused chunk slots and malloc's block rounding included,
//    not just the bytes of the interned state.
//
// Two PRE-TIMING gates abort the run (exit 1) before any number is reported:
//  1. bit-identity -- every sampled (role, query) served answer must equal
//     the materialize-then-evaluate oracle exactly;
//  2. warm-role interning -- re-submitting an already-served (role, query)
//     workload must intern ZERO configurations in the role partitions. The
//     count is exported as authz/configs_interned_warm_role, which
//     ci/check_bench_regression.py gates at zero growth vs main; a
//     deterministic small-capacity eviction pass likewise exports
//     authz/planes_evicted.
//
// The acceptance bar (enforced here when the sweep reaches 1000 roles, i.e.
// always in CI smoke and nightly): warm_qps >= 5x materialize_qps.
//
// Modes: default = google-benchmark families (Authz/*); --smoqe_json=FILE =
// the self-timed smoke run above (BENCH_authz.json in CI). Document size
// scales with SMOQE_BENCH_PATIENTS, role count with SMOQE_BENCH_ROLES.

#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "eval/naive_evaluator.h"
#include "exec/query_service.h"
#include "gen/fixtures.h"
#include "policy/policy.h"
#include "policy/role_catalog.h"
#include "policy/role_compiler.h"
#include "view/materializer.h"
#include "xpath/parser.h"

namespace smoqe::bench {
namespace {

using policy::Annotation;
using policy::Policy;
using policy::RoleId;

/// Role count ceiling for the sweep (env SMOQE_BENCH_ROLES, default 1000 so
/// the 5x acceptance gate at 1000 roles is live in every smoke run; nightly
/// exports 10000).
int MaxRoles() {
  const char* env = std::getenv("SMOQE_BENCH_ROLES");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1000;
}

// Queries posed against the role views. Every label is a hospital label;
// roles that hide a label simply answer empty for it (part of the property:
// a denied region is indistinguishable from an absent one).
std::vector<std::string> AuthzWorkload() {
  return {
      "department/patient/pname",
      "//diagnosis",
      "department/patient[visit/treatment/medication]",
      "//doctor/specialty",
      "department/*/visit",
      "department/patient/(parent/patient)*[pname]",
  };
}

// N roles over the hospital DTD, deterministic per role id: a sparse deny
// mask (1/16 of edges), conditional exposure (2/16), explicit allow (1/16),
// the rest inherited/open; every fourth role extends an earlier one so
// annotation resolution exercises the inheritance path. No role hides the
// root (hidden roots answer empty and would inflate warm qps for free).
Policy BuildPolicy(int num_roles) {
  Policy p(gen::HospitalDtd());
  const dtd::Dtd& d = p.source_dtd();
  const std::vector<const char*> conds = {
      "pname", "not(test)", "type", "diagnosis[text() = 'heart disease']"};
  for (int r = 0; r < num_roles; ++r) {
    std::mt19937_64 rng(0x5ec0 + static_cast<uint64_t>(r));
    std::vector<std::string> parents;
    if (r > 0 && rng() % 4 == 0) {
      parents.push_back("role" + std::to_string(rng() % r));
    }
    auto role = p.AddRole("role" + std::to_string(r), parents);
    if (!role.ok()) {
      std::fprintf(stderr, "AddRole: %s\n", role.status().ToString().c_str());
      std::exit(1);
    }
    for (dtd::TypeId a = 0; a < d.num_types(); ++a) {
      for (dtd::TypeId b : d.ChildTypes(a)) {
        Annotation ann;
        switch (rng() % 16) {
          case 0:
            ann = Annotation::Deny();
            break;
          case 1:
          case 2: {
            auto cond = Annotation::If(conds[rng() % conds.size()]);
            if (!cond.ok()) {
              std::fprintf(stderr, "If: %s\n",
                           cond.status().ToString().c_str());
              std::exit(1);
            }
            ann = cond.take();
            break;
          }
          case 3:
            ann = Annotation::Allow();
            break;
          default:
            continue;  // unannotated: resolves through inheritance
        }
        Status st = p.Annotate(role.value(), d.type_name(a), d.type_name(b),
                               std::move(ann));
        if (!st.ok()) {
          std::fprintf(stderr, "Annotate: %s\n", st.ToString().c_str());
          std::exit(1);
        }
      }
    }
  }
  return p;
}

// The naive baseline for one (role, query): materialize sigma_R(T), evaluate
// on the copy, map back through the binding. Also the oracle for the
// bit-identity gate.
std::vector<xml::NodeId> MaterializeThenEvaluate(const view::ViewDef& view,
                                                 const xml::Tree& source,
                                                 const xpath::PathPtr& query) {
  auto mat = view::Materialize(view, source);
  if (!mat.ok()) {
    std::fprintf(stderr, "Materialize: %s\n", mat.status().ToString().c_str());
    std::exit(1);
  }
  eval::NaiveEvaluator on_view(mat.value().tree);
  return view::MapToSource(mat.value(),
                           on_view.Eval(query, mat.value().tree.root()));
}

// Evenly spread sample of `k` role ids out of `n`.
std::vector<RoleId> SampleRoles(int n, int k) {
  std::vector<RoleId> roles;
  const int step = n / k > 0 ? n / k : 1;
  for (int r = 0; r < n && static_cast<int>(roles.size()) < k; r += step) {
    roles.push_back(static_cast<RoleId>(r));
  }
  return roles;
}

// Submits the full (sample-role x workload) block and drains it; returns
// queries answered. Exits on any non-OK answer (role queries never error on
// this workload; an error here is a serving bug, not a measurement).
int64_t ServeBlock(exec::QueryService& service,
                   const std::vector<RoleId>& roles,
                   const std::vector<std::string>& workload) {
  std::vector<std::future<exec::QueryService::Answer>> futures;
  futures.reserve(roles.size() * workload.size());
  for (RoleId r : roles) {
    for (const std::string& q : workload) {
      exec::SubmitOptions submit;
      submit.role = r;
      futures.push_back(service.Submit(q, submit));
    }
  }
  for (auto& f : futures) {
    auto answer = f.get();
    if (!answer.ok()) {
      std::fprintf(stderr, "serve: %s\n", answer.status().ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<int64_t>(futures.size());
}

struct SweepPoint {
  int roles = 0;
  double compile_ms_per_role = 0;
  double warm_qps = 0;
  double materialize_qps = 0;
  int64_t plane_bytes = 0;
  int64_t resident_roles = 0;
};

// One sweep point: build the catalog cold, warm the sampled partitions
// through the service, then time both sides. `warm_interned` (non-null on
// the first point only) receives the gate-2 interning delta.
SweepPoint RunPoint(int num_roles, const xml::Tree& doc,
                    int64_t* warm_interned) {
  const std::vector<std::string> workload = AuthzWorkload();
  Policy p = BuildPolicy(num_roles);
  policy::RoleCatalog catalog(p, doc, nullptr);

  SweepPoint point;
  point.roles = num_roles;

  // Cold compile latency: every role, once, through the catalog.
  const double compile_secs = Seconds([&] {
    for (int r = 0; r < num_roles; ++r) {
      auto entry = catalog.Acquire(static_cast<RoleId>(r));
      if (!entry.ok()) {
        std::fprintf(stderr, "Acquire(role%d): %s\n", r,
                     entry.status().ToString().c_str());
        std::exit(1);
      }
    }
  });
  point.compile_ms_per_role = compile_secs * 1000.0 / num_roles;

  exec::QueryServiceOptions service_options;
  service_options.catalog = &catalog;
  exec::QueryService service(doc, service_options);

  const std::vector<RoleId> samples = SampleRoles(num_roles, 16);
  const std::vector<RoleId> gate_roles = SampleRoles(num_roles, 4);

  // Warm the sampled partitions (compiles the (role, query) rewritings and
  // populates the role planes) before any gate or timing.
  ServeBlock(service, samples, workload);

  // ---- gate 1: bit-identity against materialize-then-evaluate ----
  int checked = 0;
  for (RoleId r : gate_roles) {
    auto compiled = policy::CompileRole(p, r);
    if (!compiled.ok() || compiled.value().root_hidden) {
      std::fprintf(stderr, "gate: role%d did not compile to a visible view\n",
                   r);
      std::exit(1);
    }
    for (const std::string& q : workload) {
      exec::SubmitOptions submit;
      submit.role = r;
      auto served = service.Submit(q, submit).get();
      if (!served.ok()) {
        std::fprintf(stderr, "gate: role%d '%s': %s\n", r, q.c_str(),
                     served.status().ToString().c_str());
        std::exit(1);
      }
      auto parsed = xpath::ParseQuery(q);
      if (!parsed.ok()) {
        std::fprintf(stderr, "gate: bad workload query %s\n", q.c_str());
        std::exit(1);
      }
      if (served.value() != MaterializeThenEvaluate(*compiled.value().view,
                                                    doc, parsed.value())) {
        std::fprintf(stderr,
                     "FAIL: role%d '%s' served answer != "
                     "materialize-then-evaluate oracle\n",
                     r, q.c_str());
        std::exit(1);
      }
      ++checked;
    }
  }

  // ---- gate 2 (first point only): warm re-serve interns nothing ----
  if (warm_interned != nullptr) {
    const int64_t before = catalog.plane_stats().configs_interned;
    ServeBlock(service, samples, workload);
    *warm_interned = catalog.plane_stats().configs_interned - before;
    if (*warm_interned != 0) {
      std::fprintf(stderr,
                   "FAIL: warm re-serve interned %lld configs (must be 0 -- "
                   "role partitions stopped reusing their planes)\n",
                   static_cast<long long>(*warm_interned));
      std::exit(1);
    }
  }

  // ---- timing: warm serving vs materialize-then-evaluate ----
  const int64_t block = static_cast<int64_t>(samples.size() * workload.size());
  point.warm_qps = static_cast<double>(block) /
                   BestSecondsPerRound(
                       [&] { ServeBlock(service, samples, workload); });

  std::vector<const view::ViewDef*> gate_views;
  std::vector<std::shared_ptr<const view::ViewDef>> gate_view_owners;
  for (RoleId r : gate_roles) {
    auto compiled = policy::CompileRole(p, r);
    gate_view_owners.push_back(compiled.value().view);
    gate_views.push_back(gate_view_owners.back().get());
  }
  std::vector<xpath::PathPtr> parsed_workload;
  for (const std::string& q : workload) {
    parsed_workload.push_back(xpath::ParseQuery(q).take());
  }
  const int64_t mat_block =
      static_cast<int64_t>(gate_views.size() * parsed_workload.size());
  point.materialize_qps =
      static_cast<double>(mat_block) /
      BestSecondsPerRound([&] {
        for (const view::ViewDef* view : gate_views) {
          for (const xpath::PathPtr& q : parsed_workload) {
            benchmark::DoNotOptimize(MaterializeThenEvaluate(*view, doc, q));
          }
        }
      });

  point.plane_bytes = catalog.plane_stats().approx_bytes;
  point.resident_roles = catalog.stats().resident;
  std::printf(
      "roles=%-6d compile %.3f ms/role, warm %.0f qps, materialize %.0f qps "
      "(%.1fx), %lld plane bytes, %d identity checks\n",
      num_roles, point.compile_ms_per_role, point.warm_qps,
      point.materialize_qps, point.warm_qps / point.materialize_qps,
      static_cast<long long>(point.plane_bytes), checked);
  return point;
}

// Deterministic eviction counter: a 4-partition catalog touched by 12 roles
// in sequence (nothing pinned) must evict exactly 8 -- gated at zero growth
// vs main by check_bench_regression.py.
int64_t DeterministicEvictions(const xml::Tree& doc) {
  Policy p = BuildPolicy(12);
  policy::RoleCatalogOptions options;
  options.role_capacity = 4;
  policy::RoleCatalog catalog(p, doc, nullptr, options);
  for (int r = 0; r < 12; ++r) {
    auto entry = catalog.Acquire(static_cast<RoleId>(r));
    if (!entry.ok()) {
      std::fprintf(stderr, "eviction pass: %s\n",
                   entry.status().ToString().c_str());
      std::exit(1);
    }
  }
  const int64_t evicted = catalog.stats().planes_evicted;
  if (evicted != 8) {
    std::fprintf(stderr,
                 "FAIL: 12 roles through a 4-partition catalog evicted %lld "
                 "(expected exactly 8)\n",
                 static_cast<long long>(evicted));
    std::exit(1);
  }
  return evicted;
}

int WriteJsonSmoke(const std::string& path) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  const int max_roles = MaxRoles();
  std::vector<int> sweep_sizes;
  for (int n : {100, 1000, 10000}) {
    if (n < max_roles) sweep_sizes.push_back(n);
  }
  sweep_sizes.push_back(max_roles);

  std::vector<SweepPoint> sweep;
  int64_t warm_interned = -1;
  for (int n : sweep_sizes) {
    sweep.push_back(
        RunPoint(n, doc, sweep.empty() ? &warm_interned : nullptr));
  }
  const int64_t planes_evicted = DeterministicEvictions(doc);

  // The acceptance bar: at >= 1000 roles, warm serving must beat
  // materialize-then-evaluate by 5x.
  for (const SweepPoint& point : sweep) {
    if (point.roles < 1000 || point.materialize_qps <= 0) continue;
    const double ratio = point.warm_qps / point.materialize_qps;
    if (ratio < 5.0) {
      std::fprintf(stderr,
                   "FAIL: at %d roles warm serving is only %.1fx "
                   "materialize-then-evaluate (bar: >= 5x)\n",
                   point.roles, ratio);
      return 1;
    }
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"elements\": %d,\n  \"authz\": {\n    \"sweep\": [",
               doc.CountElements());
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& s = sweep[i];
    std::fprintf(out,
                 "%s\n      {\"roles\": %d, \"warm_qps\": %.1f, "
                 "\"materialize_qps\": %.1f, \"warm_over_materialize\": %.2f, "
                 "\"compile_ms_per_role\": %.4f, \"plane_bytes\": %lld, "
                 "\"resident_roles\": %lld}",
                 i == 0 ? "" : ",", s.roles, s.warm_qps, s.materialize_qps,
                 s.warm_qps / s.materialize_qps, s.compile_ms_per_role,
                 static_cast<long long>(s.plane_bytes),
                 static_cast<long long>(s.resident_roles));
  }
  std::fprintf(out,
               "\n    ],\n    \"counters\": {\n"
               "      \"configs_interned_warm_role\": %lld,\n"
               "      \"planes_evicted\": %lld\n    }\n  }\n}\n",
               static_cast<long long>(warm_interned),
               static_cast<long long>(planes_evicted));
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// ---- google-benchmark families ----

void BM_ColdRoleCompile(benchmark::State& state) {
  Policy p = BuildPolicy(256);
  int r = 0;
  for (auto _ : state) {
    auto compiled = policy::CompileRole(p, static_cast<RoleId>(r));
    if (!compiled.ok()) {
      state.SkipWithError("CompileRole failed");
      return;
    }
    benchmark::DoNotOptimize(compiled.value().view);
    r = (r + 1) % 256;
  }
}

void BM_WarmRoleServe(benchmark::State& state) {
  const xml::Tree& doc = HospitalDoc(BasePatients());
  Policy p = BuildPolicy(16);
  policy::RoleCatalog catalog(p, doc, nullptr);
  exec::QueryServiceOptions options;
  options.catalog = &catalog;
  exec::QueryService service(doc, options);
  const std::vector<std::string> workload = AuthzWorkload();
  const std::vector<RoleId> roles = SampleRoles(16, 16);
  ServeBlock(service, roles, workload);  // warm every partition
  int i = 0;
  for (auto _ : state) {
    exec::SubmitOptions submit;
    submit.role = roles[i % roles.size()];
    auto answer = service.Submit(workload[i % workload.size()], submit).get();
    if (!answer.ok()) {
      state.SkipWithError("serve failed");
      return;
    }
    ++i;
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void RegisterAll() {
  benchmark::RegisterBenchmark("Authz/ColdRoleCompile", BM_ColdRoleCompile)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("Authz/WarmRoleServe", BM_WarmRoleServe)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kJsonFlag = "--smoqe_json=";
    if (arg.substr(0, kJsonFlag.size()) == kJsonFlag) {
      return smoqe::bench::WriteJsonSmoke(
          std::string(arg.substr(kJsonFlag.size())));
    }
  }
  smoqe::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Authorization-conformance suite (the `authz` CTest label): the paper's
// Q(sigma(T)) = Q'(T) property, quantified over ROLES.
//
// For randomized (tree, policy, query) draws -- random role DAGs with
// allow/deny/conditional annotations over a recursive DTD, random documents
// conforming to it, random Xreg queries -- every answer produced for a role
// R through the serving path (QueryService with a RoleCatalog, i.e. the
// (role, query)-keyed MFA rewriting evaluated over the SOURCE) must be
//
//   * bit-identical to the naive evaluate-on-materialized-view oracle:
//     NaiveEvaluator(Q) on view::Materialize(sigma_R(T)), mapped to source
//     node ids through the materialization binding; and
//   * contained in sigma_R(T): every answered node is one the role's
//     materialized view exposes.
//
// A role whose root is denied answers the empty node set for every
// well-formed query (and a parse error for garbage) -- never an error.
//
// The suite ends with partition eviction: a partition the catalog evicts is
// freed once the batch using it ends, and a concurrent registration/eviction
// stress (the TSan target of the `authz` label) has many client threads
// submitting role-scoped queries against a catalog whose capacity forces
// continuous partition eviction underneath in-flight batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dtd/dtd_parser.h"
#include "eval/naive_evaluator.h"
#include "exec/query_service.h"
#include "gen/generic_generator.h"
#include "gen/query_generator.h"
#include "policy/policy.h"
#include "policy/role_catalog.h"
#include "policy/role_compiler.h"
#include "view/materializer.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace smoqe {
namespace {

using policy::AccessKind;
using policy::Annotation;
using policy::Policy;
using policy::RoleId;

dtd::Dtd TestDtd() {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return d.take();
}

// A random policy over the DTD: 4-6 roles, each extending a random subset of
// the earlier ones, each annotating a random subset of the DTD's edges with
// deny / conditional-allow / explicit allow. Deterministic per seed. All
// model operations are infallible by construction (edges come from
// ChildTypes, each visited once); EXPECTs catch regressions anyway.
Policy RandomPolicy(uint64_t seed) {
  Policy p(TestDtd());
  std::mt19937_64 rng(seed);
  const dtd::Dtd& d = p.source_dtd();
  const std::vector<const char*> conds = {"t", "not(c)", "a", "b",
                                          "t[text() = 'alpha']"};
  auto annotate = [&](RoleId role, dtd::TypeId a, dtd::TypeId b,
                      Annotation ann) {
    Status st =
        p.Annotate(role, d.type_name(a), d.type_name(b), std::move(ann));
    EXPECT_TRUE(st.ok()) << st.ToString();
  };
  const int num_roles = 4 + static_cast<int>(rng() % 3);
  for (int r = 0; r < num_roles; ++r) {
    std::vector<std::string> parents;
    for (int q = 0; q < r; ++q) {
      if (rng() % 3 == 0) parents.push_back("role" + std::to_string(q));
    }
    RoleId role = p.AddRole("role" + std::to_string(r), parents).take();
    for (dtd::TypeId a = 0; a < d.num_types(); ++a) {
      for (dtd::TypeId b : d.ChildTypes(a)) {
        switch (rng() % 8) {
          case 0:
            annotate(role, a, b, Annotation::Deny());
            break;
          case 1:
          case 2:
            annotate(role, a, b,
                     Annotation::If(conds[rng() % conds.size()]).take());
            break;
          case 3:
            annotate(role, a, b, Annotation::Allow());
            break;
          default:
            break;  // unannotated: resolves through inheritance
        }
      }
    }
    // An occasional hidden-root role keeps the empty-view serving path hot.
    if (rng() % 8 == 0) {
      EXPECT_TRUE(p.AnnotateRoot(role, Annotation::Deny()).ok());
    }
  }
  return p;
}

class AuthzConformanceTest : public ::testing::TestWithParam<int> {};

// The headline property. Each round draws one policy and one document and
// submits 12 random queries per role through a role-scoped QueryService --
// >= 200 (tree, policy, query) draws across the 6 rounds at 4+ roles each.
// All roles' queries go through ONE service (futures first, answers after),
// so admission batches mix roles and the per-role group isolation in
// ProcessBatch is what is actually under test.
TEST_P(AuthzConformanceTest, ServedAnswersMatchMaterializedViewOracle) {
  const int round = GetParam();
  Policy p = RandomPolicy(11000 + round);

  gen::GenericParams tree_params;
  tree_params.seed = 21000 + round;
  tree_params.star_max = 3;
  tree_params.soft_depth = 6;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), tree_params);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const xml::Tree& source = tree.value();

  // Per-role ground truth: the materialized security view and the set of
  // source nodes it exposes (for the containment check).
  struct RoleTruth {
    bool hidden = false;
    view::MaterializedView mat;
    std::vector<char> exposed;  // by source node id
  };
  std::vector<RoleTruth> truth(p.num_roles());
  for (RoleId r = 0; r < p.num_roles(); ++r) {
    auto compiled = policy::CompileRole(p, r);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    truth[r].hidden = compiled.value().root_hidden;
    if (truth[r].hidden) continue;
    auto mat = view::Materialize(*compiled.value().view, source);
    ASSERT_TRUE(mat.ok()) << "role " << p.role_name(r) << ": "
                          << mat.status().ToString();
    truth[r].mat = mat.take();
    truth[r].exposed.assign(source.size(), 0);
    for (xml::NodeId bound : truth[r].mat.binding) {
      if (bound != xml::kNullNode) truth[r].exposed[bound] = 1;
    }
  }

  policy::RoleCatalog catalog(p, source, nullptr);
  exec::QueryServiceOptions service_options;
  service_options.catalog = &catalog;
  service_options.max_batch = 8;  // force multi-role admission batches
  exec::QueryService service(source, service_options);

  gen::QueryGenParams qparams;
  qparams.labels = {"r", "a", "b", "c", "t"};
  qparams.text_values = {"alpha", "beta"};
  qparams.allow_position = false;  // untranslatable through views
  qparams.max_depth = 3;
  std::mt19937_64 rng(31000 + round);

  struct Submitted {
    RoleId role;
    std::string text;
    std::future<exec::QueryService::Answer> answer;
  };
  std::vector<Submitted> submitted;
  for (RoleId r = 0; r < p.num_roles(); ++r) {
    for (int q = 0; q < 12; ++q) {
      xpath::PathPtr query = gen::RandomQuery(qparams, &rng);
      Submitted s;
      s.role = r;
      s.text = xpath::ToString(query);
      exec::SubmitOptions submit;
      submit.role = r;
      s.answer = service.Submit(s.text, submit);
      submitted.push_back(std::move(s));
    }
  }

  for (Submitted& s : submitted) {
    SCOPED_TRACE("role " + p.role_name(s.role) + " query " + s.text);
    exec::QueryService::Answer answer = s.answer.get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    RoleTruth& rt = truth[s.role];
    if (rt.hidden) {
      EXPECT_TRUE(answer.value().empty());
      continue;
    }
    // Oracle: evaluate on the role's materialized view, map to source ids.
    auto query = xpath::ParseQuery(s.text);
    ASSERT_TRUE(query.ok());
    eval::NaiveEvaluator on_view(rt.mat.tree);
    std::vector<xml::NodeId> oracle = view::MapToSource(
        rt.mat, on_view.Eval(query.value(), rt.mat.tree.root()));
    EXPECT_EQ(answer.value(), oracle);
    // Containment: nothing outside sigma_R(T) is ever answered.
    for (xml::NodeId n : answer.value()) {
      ASSERT_GE(n, 0);
      ASSERT_LT(n, source.size());
      EXPECT_TRUE(rt.exposed[n]) << "node " << n << " leaked past the view";
    }
  }

  exec::QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.role_queries, static_cast<int64_t>(submitted.size()));
  EXPECT_GT(stats.role_groups + stats.role_denied_empty, 0);
}

INSTANTIATE_TEST_SUITE_P(Rounds, AuthzConformanceTest, ::testing::Range(0, 6));

TEST(AuthzHiddenRootTest, EmptyAnswersNotErrors) {
  Policy p(TestDtd());
  RoleId shut = p.AddRole("shut").take();
  ASSERT_TRUE(p.AnnotateRoot(shut, Annotation::Deny()).ok());

  gen::GenericParams params;
  params.seed = 5;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());

  policy::RoleCatalog catalog(p, tree.value(), nullptr);
  exec::QueryServiceOptions options;
  options.catalog = &catalog;
  exec::QueryService service(tree.value(), options);

  exec::SubmitOptions submit;
  submit.role = shut;
  auto ok = service.Submit("a//b[t]", submit).get();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();  // empty view, not an error
  EXPECT_TRUE(ok.value().empty());
  // Garbage is still a parse error, even behind a hidden root.
  EXPECT_FALSE(service.Submit("a[[", submit).get().ok());
  EXPECT_EQ(service.stats().role_denied_empty, 1);

  // A role-scoped Submit on a catalog-less service is rejected cleanly.
  exec::QueryService plain(tree.value());
  EXPECT_FALSE(plain.Submit("a", submit).get().ok());
}

// The service keeps no evaluator past its batch, so it pins no role
// partition the catalog has evicted: with room for one role, serving role B
// frees role A's partition while the service is still alive. Role A's
// second serve builds a new evaluator yet interns nothing -- the
// partition's plane store alone carries the warm start.
TEST(AuthzEvictionTest, EvictedPartitionIsReleasedAfterItsBatch) {
  Policy p(TestDtd());
  const RoleId a = p.AddRole("a").take();
  const RoleId b = p.AddRole("b").take();

  gen::GenericParams params;
  params.seed = 7;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());

  policy::RoleCatalogOptions catalog_options;
  catalog_options.role_capacity = 1;
  policy::RoleCatalog catalog(p, tree.value(), nullptr, catalog_options);
  exec::QueryServiceOptions options;
  options.catalog = &catalog;
  options.max_batch = 1;
  exec::QueryService service(tree.value(), options);

  exec::SubmitOptions as_a;
  as_a.role = a;
  ASSERT_TRUE(service.Submit("a//b", as_a).get().ok());
  const int64_t interned = catalog.plane_stats().configs_interned;
  EXPECT_GT(interned, 0);
  ASSERT_TRUE(service.Submit("a//b", as_a).get().ok());
  EXPECT_EQ(catalog.plane_stats().configs_interned, interned);

  std::weak_ptr<policy::RoleCatalog::Entry> entry_a =
      catalog.Acquire(a).value();
  exec::SubmitOptions as_b;
  as_b.role = b;
  ASSERT_TRUE(service.Submit("a//b", as_b).get().ok());
  EXPECT_EQ(catalog.stats().resident, 1);
  EXPECT_TRUE(entry_a.expired());
}

// A busy role's plane store is capped like its rewrite cache. 300 distinct
// texts sent twice miss the role's 256-entry rewrite cache every time (a
// cyclic scan defeats an LRU), and every miss compiles a new MFA that gets
// a new plane. An uncapped store kept all 600, each pinning its MFA.
TEST(AuthzEvictionTest, BusyRolePlaneStoreStaysBounded) {
  Policy p(TestDtd());
  const RoleId role = p.AddRole("busy").take();

  gen::GenericParams params;
  params.seed = 7;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());

  policy::RoleCatalog catalog(p, tree.value(), nullptr);
  exec::QueryServiceOptions options;
  options.catalog = &catalog;
  exec::QueryService service(tree.value(), options);

  exec::SubmitOptions submit;
  submit.role = role;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::future<exec::QueryService::Answer>> answers;
    for (int i = 0; i < 300; ++i) {
      const std::string text = "a[t/text() = 'v" + std::to_string(i) + "']";
      answers.push_back(service.Submit(text, submit));
    }
    for (auto& answer : answers) ASSERT_TRUE(answer.get().ok());
  }
  EXPECT_EQ(catalog.Acquire(role).value()->cache_stats().misses, 600);
  EXPECT_LE(catalog.plane_stats().planes, 256);
}

// Concurrent role registration + eviction stress: 10 roles, a catalog that
// holds at most 3 partitions, and 8 client threads hammering role-scoped
// queries. Every answer must still match the per-role oracle computed up
// front -- eviction may cost recompiles, never answers -- and the catalog's
// counters must show the capacity actually forced evictions.
TEST(AuthzStressTest, ConcurrentAcquireEvictionKeepsAnswersRight) {
  Policy p(TestDtd());
  std::mt19937_64 rng(77);
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(p.AddRole("role" + std::to_string(r)).ok());
    RoleId role = static_cast<RoleId>(r);
    const dtd::Dtd& d = p.source_dtd();
    for (dtd::TypeId a = 0; a < d.num_types(); ++a) {
      for (dtd::TypeId b : d.ChildTypes(a)) {
        if (rng() % 4 == 0) {
          ASSERT_TRUE(p.Annotate(role, d.type_name(a), d.type_name(b),
                                 Annotation::Deny())
                          .ok());
        }
      }
    }
  }

  gen::GenericParams params;
  params.seed = 99;
  params.star_max = 3;
  auto tree = gen::GenerateFromDtd(p.source_dtd(), params);
  ASSERT_TRUE(tree.ok());
  const xml::Tree& source = tree.value();

  const std::vector<std::string> queries = {"a//b", "r/a[t]/b", "(a)*/t",
                                            "b/c//a"};
  // Oracle per (role, query), computed single-threaded up front.
  std::vector<std::vector<std::vector<xml::NodeId>>> oracle(p.num_roles());
  for (RoleId r = 0; r < p.num_roles(); ++r) {
    auto compiled = policy::CompileRole(p, r);
    ASSERT_TRUE(compiled.ok());
    ASSERT_FALSE(compiled.value().root_hidden);
    auto mat = view::Materialize(*compiled.value().view, source);
    ASSERT_TRUE(mat.ok()) << mat.status().ToString();
    eval::NaiveEvaluator on_view(mat.value().tree);
    for (const std::string& q : queries) {
      auto query = xpath::ParseQuery(q);
      ASSERT_TRUE(query.ok());
      oracle[r].push_back(view::MapToSource(
          mat.value(), on_view.Eval(query.value(), mat.value().tree.root())));
    }
  }

  policy::RoleCatalogOptions catalog_options;
  catalog_options.role_capacity = 3;  // force churn
  policy::RoleCatalog catalog(p, source, nullptr, catalog_options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  {
    exec::QueryServiceOptions service_options;
    service_options.catalog = &catalog;
    service_options.max_batch = 8;
    exec::QueryService service(source, service_options);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        std::mt19937_64 trng(1000 + t);
        for (int i = 0; i < kPerThread; ++i) {
          RoleId role = static_cast<RoleId>(trng() % 10);
          size_t q = trng() % queries.size();
          exec::SubmitOptions submit;
          submit.role = role;
          auto answer = service.Submit(queries[q], submit).get();
          if (!answer.ok() || answer.value() != oracle[role][q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(service.stats().role_queries, kThreads * kPerThread);

    // Only batches in flight pin role partitions: a batch mixing roles can
    // push residency past the capacity, since in-use entries are never
    // dropped, until a later acquisition's sweep.
    EXPECT_GT(catalog.stats().planes_evicted, 0);  // churn really happened
    EXPECT_GT(catalog.stats().compiles, 10);       // evictees recompiled
  }

  // With no batch in flight, the next acquisition's eviction sweep can
  // reclaim everything beyond the cap.
  ASSERT_TRUE(catalog.Acquire(RoleId{0}).ok());
  EXPECT_LE(catalog.stats().resident, 3);
}

}  // namespace
}  // namespace smoqe

// exec::QueryService: the concurrent front-end must answer every client
// exactly what a solo HypeEvaluator run of the same query would -- under
// randomized multi-threaded submission, admission batching at every
// threshold, duplicate coalescing, view-mode rewriting, and shutdown drain.
// Runs under the `concurrency` CTest label (ASan job runs the full suite,
// TSan job runs this label), per the service's CI gate.

#include "exec/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiler.h"
#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "hype/hype.h"
#include "hype/index.h"
#include "rewrite/rewriter.h"
#include "view/view_def.h"
#include "xpath/parser.h"

namespace smoqe::exec {
namespace {

using NodeVec = std::vector<xml::NodeId>;

xml::Tree Hospital(int patients, uint64_t seed) {
  gen::HospitalParams params;
  params.patients = patients;
  params.seed = seed;
  params.heart_disease_prob = 0.3;
  return gen::GenerateHospital(params);
}

// Solo-evaluator oracle for a plain (viewless) query over `tree`.
NodeVec SoloAnswer(const xml::Tree& tree, const std::string& query) {
  auto parsed = xpath::ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << query;
  automata::Mfa mfa = automata::CompileQuery(parsed.value());
  hype::HypeEvaluator eval(tree, mfa);
  return eval.Eval(tree.root());
}

std::vector<std::string> WorkloadQueries() {
  return {
      "department/patient/pname",
      "department/patient[visit]/pname",
      "//diagnosis",
      "//patient[visit/treatment/medication]",
      "department/patient[visit/treatment/test]/pname",
      "department/patient/(parent/patient)*"
      "[visit/treatment/medication/diagnosis/text() = 'heart disease']",
      "department/patient[not(visit/treatment/test)]",
      "(department/patient)*[pname/text() = 'P0']/visit",
      "department/*/visit",
      "//doctor/specialty",
      "department/patient[address/city/text() = 'Edinburgh']/pname",
      "department/patient/visit/treatment/(medication | test)/type",
  };
}

TEST(QueryServiceTest, AnswersMatchSoloEvaluation) {
  xml::Tree tree = Hospital(15, 3);
  QueryService service(tree, {.num_threads = 2});
  for (const std::string& q : WorkloadQueries()) {
    auto answer = service.Query(q);
    ASSERT_TRUE(answer.ok()) << q;
    EXPECT_EQ(answer.value(), SoloAnswer(tree, q)) << q;
  }
}

TEST(QueryServiceTest, MalformedQueriesFailTheirFutureOnly) {
  xml::Tree tree = Hospital(5, 9);
  QueryService service(tree, {.num_threads = 2, .max_batch = 4});
  auto bad = service.Submit("department/[");
  auto good = service.Submit("department/patient/pname");
  auto bad2 = service.Submit("((");
  auto answer = good.get();
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), SoloAnswer(tree, "department/patient/pname"));
  EXPECT_FALSE(bad.get().ok());
  EXPECT_FALSE(bad2.get().ok());

  auto stats = service.stats();
  EXPECT_EQ(stats.queries_failed, 2);
}

TEST(QueryServiceTest, ViewModeRewritesBeforeEvaluating) {
  // Queries posed against the view are rewritten to source MFAs and
  // evaluated over the source document (Section 5).
  xml::Tree tree = Hospital(10, 17);
  view::ViewDef def = gen::HospitalView();
  QueryService service(tree, {.view = &def, .num_threads = 2});

  const std::string query =
      "patient[(parent/patient)*/record/diagnosis/text() = 'heart disease']";
  auto answer = service.Query(query);
  ASSERT_TRUE(answer.ok());

  auto parsed = xpath::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());
  auto rewritten = rewrite::RewriteToMfa(parsed.value(), def);
  ASSERT_TRUE(rewritten.ok());
  hype::HypeEvaluator solo(tree, rewritten.value());
  EXPECT_EQ(answer.value(), solo.Eval(tree.root()));
}

TEST(QueryServiceTest, IndexedServiceMatchesUnindexed) {
  xml::Tree tree = Hospital(12, 21);
  hype::SubtreeLabelIndex index =
      hype::SubtreeLabelIndex::Build(tree, hype::SubtreeLabelIndex::Mode::kFull);
  QueryService service(tree, {.index = &index, .num_threads = 2});
  for (const std::string& q : WorkloadQueries()) {
    auto answer = service.Query(q);
    ASSERT_TRUE(answer.ok()) << q;
    EXPECT_EQ(answer.value(), SoloAnswer(tree, q)) << q;
  }
}

// The headline stress test: many client threads, randomized query streams,
// duplicate texts, admission batching under contention -- every future must
// resolve to the solo answer. (The `concurrency` label runs this under both
// ASan and TSan in CI.)
TEST(QueryServiceTest, RandomizedMultiClientStress) {
  xml::Tree tree = Hospital(25, 31);
  const std::vector<std::string> queries = WorkloadQueries();
  std::map<std::string, NodeVec> expected;
  for (const std::string& q : queries) expected[q] = SoloAnswer(tree, q);

  QueryServiceOptions options;
  options.num_threads = 4;
  options.max_batch = 8;
  options.max_delay = std::chrono::microseconds(500);
  QueryService service(tree, options);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 40;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(1000 + c);
      std::vector<std::pair<std::string, std::future<QueryService::Answer>>>
          inflight;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const std::string& q = queries[rng() % queries.size()];
        inflight.emplace_back(q, service.Submit(q));
        // Wait in bursts so submissions from different clients interleave
        // into shared admission batches.
        if (inflight.size() >= 5) {
          for (auto& [text, fut] : inflight) {
            auto answer = fut.get();
            if (!answer.ok() || answer.value() != expected[text]) {
              ++failures[c];
            }
          }
          inflight.clear();
        }
      }
      for (auto& [text, fut] : inflight) {
        auto answer = fut.get();
        if (!answer.ok() || answer.value() != expected[text]) ++failures[c];
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  auto stats = service.stats();
  EXPECT_EQ(stats.queries_submitted, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.queries_answered, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.queries_failed, 0);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.max_batch_seen, 8);
  EXPECT_EQ(stats.cache.misses, static_cast<int64_t>(queries.size()));
}

TEST(QueryServiceTest, CoalescesDuplicateQueriesInABatch) {
  xml::Tree tree = Hospital(8, 41);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.max_batch = 32;
  // Generous delay so one batch collects everything submitted below.
  options.max_delay = std::chrono::milliseconds(200);
  QueryService service(tree, options);

  const std::string q = "department/patient/pname";
  const NodeVec expected = SoloAnswer(tree, q);
  std::vector<std::future<QueryService::Answer>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(service.Submit(q));
  for (auto& f : futures) {
    auto answer = f.get();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value(), expected);
  }
  auto stats = service.stats();
  // All 32 submissions carried the same text; whatever batching happened,
  // at least one batch held duplicates that were evaluated once.
  EXPECT_GT(stats.coalesced_duplicates, 0);
  EXPECT_EQ(stats.cache.misses, 1);
}

TEST(QueryServiceTest, ShutdownDrainsSubmittedQueries) {
  xml::Tree tree = Hospital(10, 53);
  const std::string q = "//diagnosis";
  const NodeVec expected = SoloAnswer(tree, q);
  std::vector<std::future<QueryService::Answer>> futures;
  {
    QueryServiceOptions options;
    options.num_threads = 2;
    options.max_batch = 4;
    options.max_delay = std::chrono::milliseconds(50);
    QueryService service(tree, options);
    for (int i = 0; i < 20; ++i) futures.push_back(service.Submit(q));
  }  // ~QueryService before most batches could have dispatched
  for (auto& f : futures) {
    auto answer = f.get();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value(), expected);
  }
}

TEST(QueryServiceTest, ExplicitShutdownSemantics) {
  xml::Tree tree = Hospital(5, 57);
  const std::string q = "//diagnosis";
  const NodeVec expected = SoloAnswer(tree, q);
  QueryService service(tree, {.num_threads = 2});
  auto pre = service.Submit(q);
  service.Shutdown();
  // Everything submitted before Shutdown is answered (drain), Shutdown is
  // idempotent, and post-Shutdown submissions fail fast instead of hanging
  // on a future no dispatcher will ever fulfill.
  auto answer = pre.get();
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), expected);
  service.Shutdown();
  auto post = service.Submit(q);
  ASSERT_EQ(post.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto rejected = post.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}  // destructor after an explicit Shutdown must also be a clean no-op

// The regression this PR fixes: Submit's (and Shutdown's) cv_ notification
// used to happen after the mutex was released, so a submitter's notify
// could touch the condition variable after a racing teardown destroyed it.
// Race many submitters against one explicit Shutdown; under TSan (the
// `concurrency` CI job) the old code reports the lifetime race, and every
// future -- admitted into the drain or rejected -- must still resolve.
TEST(QueryServiceTest, SubmitRacingShutdownNeverHangs) {
  xml::Tree tree = Hospital(5, 59);
  const std::string q = "department/patient/pname";
  const NodeVec expected = SoloAnswer(tree, q);
  for (int round = 0; round < 8; ++round) {
    QueryService service(tree, {.num_threads = 2, .max_batch = 4});
    std::atomic<bool> go{false};
    std::vector<std::future<QueryService::Answer>> futures(16);
    std::vector<std::thread> submitters;
    std::atomic<int> next{0};
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 4; ++i) {
          futures[next.fetch_add(1)] = service.Submit(q);
        }
      });
    }
    go.store(true, std::memory_order_release);
    service.Shutdown();
    for (auto& t : submitters) t.join();
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      auto answer = f.get();  // must resolve either way -- never hang
      if (answer.ok()) {
        EXPECT_EQ(answer.value(), expected);
      } else {
        EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
      }
    }
  }
}

// ----------------------------- deadlines, cancellation, admission --

TEST(QueryServiceTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  xml::Tree tree = Hospital(5, 71);
  QueryService service(tree, {.num_threads = 2});
  SubmitOptions submit;
  submit.deadline = Deadline::After(std::chrono::microseconds(0));
  auto answer = service.Submit("//diagnosis", submit).get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  auto stats = service.stats();
  EXPECT_EQ(stats.queries_timed_out, 1);
  EXPECT_EQ(stats.queries_answered, 1);
}

TEST(QueryServiceTest, GenerousDeadlineStillAnswersCorrectly) {
  xml::Tree tree = Hospital(8, 73);
  QueryService service(tree, {.num_threads = 2});
  const std::string q = "department/patient/pname";
  SubmitOptions submit;
  submit.deadline = Deadline::After(std::chrono::seconds(30));
  auto answer = service.Submit(q, submit).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), SoloAnswer(tree, q));
  EXPECT_EQ(service.stats().queries_timed_out, 0);
}

TEST(QueryServiceTest, CancelledTokenResolvesCancelled) {
  xml::Tree tree = Hospital(5, 79);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.max_batch = 64;
  options.max_delay = std::chrono::milliseconds(100);  // held in the queue
  QueryService service(tree, options);
  CancelToken token;
  SubmitOptions submit;
  submit.cancel = &token;
  auto future = service.Submit("//diagnosis", submit);
  token.Cancel();
  auto answer = future.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.stats().queries_cancelled, 1);
}

TEST(QueryServiceTest, MixedBatchIsolatesPerQueryDeadlines) {
  // One coalesced admission batch holding an already-expired member and a
  // healthy one: the expired member resolves kDeadlineExceeded while the
  // healthy member still gets the full answer (the min-deadline retry).
  xml::Tree tree = Hospital(8, 83);
  QueryServiceOptions options;
  options.num_threads = 2;
  options.max_batch = 64;
  options.max_delay = std::chrono::milliseconds(20);
  QueryService service(tree, options);
  const std::string q = "department/patient/pname";
  SubmitOptions expired;
  expired.deadline = Deadline::After(std::chrono::microseconds(1));
  auto doomed = service.Submit("//diagnosis", expired);
  auto healthy = service.Submit(q);
  auto doomed_answer = doomed.get();
  ASSERT_FALSE(doomed_answer.ok());
  EXPECT_EQ(doomed_answer.status().code(), StatusCode::kDeadlineExceeded);
  auto healthy_answer = healthy.get();
  ASSERT_TRUE(healthy_answer.ok());
  EXPECT_EQ(healthy_answer.value(), SoloAnswer(tree, q));
}

TEST(QueryServiceTest, QueueDepthSheddingRejectsOverload) {
  xml::Tree tree = Hospital(5, 89);
  QueryServiceOptions options;
  options.num_threads = 1;
  options.max_batch = 1000;  // admission holds the queue open...
  options.max_delay = std::chrono::milliseconds(200);  // ...for 200ms
  options.max_queue = 2;
  QueryService service(tree, options);
  std::vector<std::future<QueryService::Answer>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit("//diagnosis"));
  int ok = 0;
  int shed = 0;
  for (auto& f : futures) {
    auto answer = f.get();
    if (answer.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  // The queue admits at most 2 at a time; at least 6 - 2 - (one batch the
  // dispatcher may already have popped) must have been shed.
  EXPECT_GE(shed, 2);
  EXPECT_EQ(ok + shed, 6);
  auto stats = service.stats();
  EXPECT_EQ(stats.queries_shed, shed);
  EXPECT_EQ(stats.queries_answered, 6);
}

// The satellite regression of this PR: the dispatcher's batch-admission
// wait loop used to trust the condition variable's return alone, so a storm
// of Submit notifications could keep re-arming the wait and hold a batch
// open far past its age deadline. The fixed loop re-checks the clock after
// every wakeup. Under an injected dispatcher stall (which widens the
// window where submissions land mid-collection) and a continuous
// submission trickle, the first future must still resolve within a few age
// deadlines -- not when the trickle ends.
TEST(QueryServiceTest, AgedBatchClosesUnderSubmissionStorm) {
  xml::Tree tree = Hospital(5, 97);
#ifdef SMOQE_FAULT_INJECTION
  auto& fi = FaultInjector::Global();
  fi.Arm(12345);
  fi.SetPlan(FaultSite::kServiceDispatch,
             {FaultKind::kDelay, /*one_in=*/1, std::chrono::milliseconds(2)});
#endif
  {
    QueryServiceOptions options;
    options.num_threads = 2;
    options.max_batch = 100000;  // age is the only way a batch can close
    options.max_delay = std::chrono::milliseconds(2);
    QueryService service(tree, options);

    std::atomic<bool> stop{false};
    std::thread storm([&] {
      // Keep notifying the dispatcher; every Submit is a wakeup.
      while (!stop.load(std::memory_order_acquire)) {
        service.Submit("department/patient/pname");
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
    const auto t0 = std::chrono::steady_clock::now();
    auto answer = service.Submit("//diagnosis").get();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    stop.store(true, std::memory_order_release);
    storm.join();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value(), SoloAnswer(tree, "//diagnosis"));
    // Generous bound (the age deadline is 2ms): resolution within 2s proves
    // the batch closed by age despite the storm, with slack for slow CI.
    EXPECT_LT(elapsed, std::chrono::seconds(2));
    EXPECT_GE(service.stats().batches_aged, 1);
  }
#ifdef SMOQE_FAULT_INJECTION
  fi.Disarm();
#endif
}

TEST(QueryServiceTest, BatchSizeOneServesImmediately) {
  xml::Tree tree = Hospital(5, 61);
  QueryService service(tree, {.num_threads = 1, .max_batch = 1});
  const NodeVec expected = SoloAnswer(tree, "department/patient/pname");
  for (int i = 0; i < 5; ++i) {
    auto answer = service.Query("department/patient/pname");
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value(), expected);
  }
  auto stats = service.stats();
  EXPECT_GE(stats.batches, 5);
}

TEST(QueryServiceTest, BatchSizeZeroIsClampedNotSpun) {
  xml::Tree tree = Hospital(5, 67);
  QueryService service(tree, {.num_threads = 1, .max_batch = 0});
  auto answer = service.Query("//diagnosis");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), SoloAnswer(tree, "//diagnosis"));
}

// The min-deadline retry loop is now BOUNDED (PR 9 satellite): a survivor
// of an aborted evaluation round burns one unit of its
// SubmitOptions::max_retries budget per re-evaluation, is counted in
// stats().queries_retried, and past the budget resolves kUnavailable
// ("safe to resubmit") instead of riding the dispatcher forever. The abort
// trigger here is a sibling's mid-evaluation cancellation, with an injected
// per-shard-unit delay stretching the evaluation so the cancel reliably
// lands mid-flight. Timing can still race on a loaded machine, so each
// attempt asserts only interleaving-proof invariants and the test loops
// until the retry path was provably taken.
TEST(QueryServiceTest, SurvivorOfAbortedRoundBurnsRetryBudget) {
#ifndef SMOQE_FAULT_INJECTION
  GTEST_SKIP() << "needs the injected shard-unit delay for a reliable "
                  "mid-evaluation abort";
#else
  xml::Tree tree = Hospital(12, 101);
  const std::string q = "department/patient/pname";
  const auto solo = SoloAnswer(tree, q);
  auto& fi = FaultInjector::Global();
  fi.Arm(0xB0DCE7);
  fi.SetPlan(FaultSite::kShardUnit,
             {FaultKind::kDelay, /*one_in=*/1, std::chrono::milliseconds(1)});
  bool saw_retry = false;
  for (int attempt = 0; attempt < 20 && !saw_retry; ++attempt) {
    QueryServiceOptions options;
    options.num_threads = 2;
    options.max_batch = 64;
    options.max_delay = std::chrono::milliseconds(5);  // coalesce the pair
    QueryService service(tree, options);
    CancelToken token;
    SubmitOptions doomed;
    doomed.cancel = &token;
    auto doomed_future = service.Submit("//diagnosis", doomed);
    auto healthy_future = service.Submit(q);
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    token.Cancel();

    // Interleaving-proof: the healthy member always gets the right answer,
    // the cancelled member never gets a WRONG one.
    auto healthy = healthy_future.get();
    ASSERT_TRUE(healthy.ok()) << healthy.status().message();
    EXPECT_EQ(healthy.value(), solo);
    auto cancelled = doomed_future.get();
    if (!cancelled.ok()) {
      EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
    }
    auto stats = service.stats();
    if (stats.queries_retried >= 1) {
      saw_retry = true;  // the healthy member survived an aborted round
      EXPECT_EQ(stats.retries_exhausted, 0);  // default budget is 16
    }
  }
  fi.Disarm();
  EXPECT_TRUE(saw_retry)
      << "no attempt aborted mid-evaluation; retry path never exercised";
#endif
}

TEST(QueryServiceTest, ExhaustedRetryBudgetResolvesUnavailable) {
#ifndef SMOQE_FAULT_INJECTION
  GTEST_SKIP() << "needs the injected shard-unit delay for a reliable "
                  "mid-evaluation abort";
#else
  xml::Tree tree = Hospital(12, 103);
  const std::string q = "department/patient/pname";
  const auto solo = SoloAnswer(tree, q);
  auto& fi = FaultInjector::Global();
  fi.Arm(0xE4A057);
  fi.SetPlan(FaultSite::kShardUnit,
             {FaultKind::kDelay, /*one_in=*/1, std::chrono::milliseconds(1)});
  bool saw_exhaustion = false;
  for (int attempt = 0; attempt < 20 && !saw_exhaustion; ++attempt) {
    QueryServiceOptions options;
    options.num_threads = 2;
    options.max_batch = 64;
    options.max_delay = std::chrono::milliseconds(5);
    QueryService service(tree, options);
    CancelToken token;
    SubmitOptions doomed;
    doomed.cancel = &token;
    SubmitOptions no_budget;
    no_budget.max_retries = 0;  // any aborted round exhausts immediately
    auto doomed_future = service.Submit("//diagnosis", doomed);
    auto broke_future = service.Submit(q, no_budget);
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    token.Cancel();

    // With a zero budget the healthy member either finished before any
    // abort (correct answer) or resolves kUnavailable -- never a wrong
    // answer, never a hang.
    auto broke = broke_future.get();
    if (broke.ok()) {
      EXPECT_EQ(broke.value(), solo);
    } else {
      ASSERT_EQ(broke.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(broke.status().message().find("retry budget exhausted"),
                std::string::npos);
      saw_exhaustion = true;
      EXPECT_GE(service.stats().retries_exhausted, 1);
      EXPECT_EQ(service.stats().queries_retried, 0);  // budget 0: none survive
    }
    (void)doomed_future.get();
  }
  fi.Disarm();
  EXPECT_TRUE(saw_exhaustion)
      << "no attempt aborted mid-evaluation; exhaustion path never exercised";
#endif
}

// A negative max_retries is clamped to zero at Submit, not trusted.
TEST(QueryServiceTest, NegativeRetryBudgetClampsToZero) {
  xml::Tree tree = Hospital(5, 107);
  QueryService service(tree, {.num_threads = 1});
  SubmitOptions submit;
  submit.max_retries = -7;
  auto answer = service.Submit("//diagnosis", submit).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), SoloAnswer(tree, "//diagnosis"));
  EXPECT_EQ(service.stats().retries_exhausted, 0);
}

}  // namespace
}  // namespace smoqe::exec

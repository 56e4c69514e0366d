// TransitionPlane / TransitionPlaneStore: shared compiled query state.
//
// Pins the contracts the engine/plane split relies on:
//  * engines sharing one plane answer bit-identically to solo engines with
//    private planes (answers AND per-run traversal statistics);
//  * configs_interned attributes plane insertions to the engine that caused
//    them: the sum across sharers equals the plane total, and a warm start
//    interns exactly zero;
//  * the sharded evaluator interns each configuration once per query (not
//    once per shard) through its plane store;
//  * concurrent cold-start interning from many threads is safe and still
//    bit-identical (run under TSan via the `concurrency` ctest label);
//  * the store pins MFA lifetimes (keep_alive) and soft-evicts only unused
//    planes;
//  * ChunkedStore constructs only appended slots and holds fewer than
//    2k + 8 slots for k elements; a plane's heap cost follows what it
//    interns, and ApproxBytes() reports that cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/compiled_mfa.h"
#include "automata/compiler.h"
#include "dtd/dtd_parser.h"
#include "exec/sharded_eval.h"
#include "gen/generic_generator.h"
#include "gen/query_generator.h"
#include "hype/hype.h"
#include "hype/transition_plane.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

// Live heap bytes allocated through the global operator new by this
// binary, each request counted as the block glibc's malloc makes of it (an
// 8-byte header, rounded up to 16 bytes, 32 at least). A size header in
// front of every allocation lets delete subtract it again. Every unaligned
// form is replaced, so no allocation reaches a sanitizer runtime's own
// operator new and then this delete. Only the plane byte-count test reads
// the counter; every other test just pays the header.
namespace {
std::atomic<int64_t> g_live_heap_bytes{0};
constexpr size_t kHeapHeader = alignof(std::max_align_t);

int64_t MallocBlock(size_t n) {
  return static_cast<int64_t>(
      std::max<size_t>(32, (n + 8 + 15) & ~size_t{15}));
}

void* CountedNew(size_t n) noexcept {
  void* block = std::malloc(n + kHeapHeader);
  if (block == nullptr) return nullptr;
  *static_cast<size_t*>(block) = n;
  g_live_heap_bytes.fetch_add(MallocBlock(n), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeapHeader;
}

void* CountedNewOrThrow(size_t n) {
  void* p = CountedNew(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeapHeader;
  g_live_heap_bytes.fetch_sub(MallocBlock(*reinterpret_cast<size_t*>(block)),
                              std::memory_order_relaxed);
  std::free(block);
}
}  // namespace

void* operator new(size_t n) { return CountedNewOrThrow(n); }
void* operator new[](size_t n) { return CountedNewOrThrow(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedNew(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedNew(n);
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}

namespace smoqe::hype {
namespace {

xml::Tree TestTree(int seed) {
  auto d = dtd::ParseDtd(
      "dtd r { r -> a*, b* ; a -> t, a*, b* ; b -> t, c* ; c -> a* ; "
      "t -> #text ; }");
  EXPECT_TRUE(d.ok());
  gen::GenericParams tp;
  tp.seed = 7100 + seed;
  auto tree = gen::GenerateFromDtd(d.value(), tp);
  EXPECT_TRUE(tree.ok());
  return std::move(tree.value());
}

std::vector<automata::Mfa> TestQueries(int seed, int count) {
  gen::QueryGenParams qp;
  qp.labels = {"a", "b", "c", "t"};
  qp.text_values = {"alpha"};
  std::mt19937_64 rng(8100 + seed);
  std::vector<automata::Mfa> mfas;
  for (int i = 0; i < count; ++i) {
    mfas.push_back(automata::CompileQuery(gen::RandomQuery(qp, &rng)));
  }
  return mfas;
}

void ExpectRunStatsEqual(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.elements_visited, b.elements_visited);
  EXPECT_EQ(a.cans_vertices, b.cans_vertices);
  EXPECT_EQ(a.cans_edges, b.cans_edges);
  EXPECT_EQ(a.afa_state_requests, b.afa_state_requests);
}

TEST(ChunkedStoreTest, StableAddressesAcrossGrowth) {
  // Chunks hold 8, 16, 32, ... slots: 2^17 + 8 ids cross every chunk
  // boundary up to chunk 13 (ids 65528 .. 131063) and into chunk 14.
  constexpr int kCount = (1 << 17) + 8;
  internal::ChunkedStore<int> store;
  std::vector<int*> addrs;
  for (int i = 0; i < kCount; ++i) {
    int32_t id = store.Append(i);
    ASSERT_EQ(id, i);
    addrs.push_back(&store[id]);
    // One chunk of slack at most: fewer than 2k + 8 slots for k elements.
    ASSERT_LT(store.capacity(), 2 * int64_t{i + 1} + 8) << "after id " << i;
    ASSERT_GE(store.capacity(), int64_t{i + 1});
  }
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(&store[i], addrs[i]) << "id " << i;  // never relocated
    ASSERT_EQ(store[i], i) << "id " << i;
  }
  EXPECT_EQ(store.size(), kCount);
}

// Counts its constructions and destructions.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  explicit Counted(int v) : value(v) { ++constructed; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++destroyed; }
  int value;
};

TEST(ChunkedStoreTest, ConstructsAndDestroysOnlyAppendedSlots) {
  for (int k : {0, 1, 7, 8, 9, 23, 24, 25, 100, 1000, 4097}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    Counted::constructed = 0;
    Counted::destroyed = 0;
    {
      internal::ChunkedStore<Counted> store;
      EXPECT_EQ(store.capacity(), 0);
      for (int i = 0; i < k; ++i) store.Append(i * 3);
      EXPECT_EQ(Counted::constructed, k);
      EXPECT_EQ(Counted::destroyed, 0);
      EXPECT_EQ(store.size(), k);
      EXPECT_LT(store.capacity(), 2 * int64_t{k} + 8);
      for (int i = 0; i < k; ++i) EXPECT_EQ(store[i].value, i * 3);
    }
    EXPECT_EQ(Counted::constructed, k);
    EXPECT_EQ(Counted::destroyed, k);
  }
}

TEST(TransitionPlaneTest, SharedPlaneMatchesSoloBitIdentically) {
  for (int round = 0; round < 3; ++round) {
    xml::Tree tree = TestTree(round);
    std::vector<automata::Mfa> mfas = TestQueries(round, 8);
    TransitionPlaneStore store(tree, nullptr);
    for (const automata::Mfa& mfa : mfas) {
      HypeOptions solo_options;
      HypeEvaluator solo(tree, mfa, solo_options);
      std::vector<xml::NodeId> want = solo.Eval(tree.root());

      std::shared_ptr<TransitionPlane> plane = store.For(&mfa);
      HypeOptions shared_options;
      shared_options.transition_plane = plane;
      HypeEvaluator first(tree, mfa, shared_options);
      HypeEvaluator second(tree, mfa, shared_options);
      EXPECT_EQ(first.Eval(tree.root()), want);
      EXPECT_EQ(second.Eval(tree.root()), want);
      ExpectRunStatsEqual(first.stats(), solo.stats());
      ExpectRunStatsEqual(second.stats(), solo.stats());

      // Attribution: sharers split the plane total between them, and the
      // second evaluator found everything warm.
      EXPECT_EQ(first.stats().configs_interned +
                    second.stats().configs_interned,
                plane->configs_interned());
      EXPECT_EQ(second.stats().configs_interned, 0);
    }
  }
}

TEST(TransitionPlaneTest, WarmStartInternsNothing) {
  xml::Tree tree = TestTree(11);
  std::vector<automata::Mfa> mfas = TestQueries(11, 4);
  TransitionPlaneStore store(tree, nullptr);
  for (const automata::Mfa& mfa : mfas) {
    std::shared_ptr<TransitionPlane> plane = store.For(&mfa);
    HypeOptions options;
    options.transition_plane = plane;
    HypeEvaluator eval(tree, mfa, options);
    std::vector<xml::NodeId> first = eval.Eval(tree.root());
    int64_t cold = eval.stats().configs_interned;
    EXPECT_EQ(eval.Eval(tree.root()), first);
    EXPECT_EQ(eval.stats().configs_interned, cold)
        << "a repeated evaluation must intern nothing";
  }
}

TEST(TransitionPlaneTest, IndexedModesShareThePlaneToo) {
  xml::Tree tree = TestTree(21);
  std::vector<automata::Mfa> mfas = TestQueries(21, 6);
  for (SubtreeLabelIndex::Mode mode :
       {SubtreeLabelIndex::Mode::kFull, SubtreeLabelIndex::Mode::kCompressed}) {
    SubtreeLabelIndex index = SubtreeLabelIndex::Build(tree, mode, 4);
    TransitionPlaneStore store(tree, &index);
    for (const automata::Mfa& mfa : mfas) {
      HypeOptions solo_options;
      solo_options.index = &index;
      HypeEvaluator solo(tree, mfa, solo_options);
      std::vector<xml::NodeId> want = solo.Eval(tree.root());

      HypeOptions shared_options;
      shared_options.index = &index;
      shared_options.transition_plane = store.For(&mfa);
      HypeEvaluator a(tree, mfa, shared_options);
      HypeEvaluator b(tree, mfa, shared_options);
      EXPECT_EQ(a.Eval(tree.root()), want);
      EXPECT_EQ(b.Eval(tree.root()), want);
      ExpectRunStatsEqual(a.stats(), solo.stats());
      ExpectRunStatsEqual(b.stats(), solo.stats());
      EXPECT_EQ(b.stats().configs_interned, 0);
    }
  }
}

TEST(TransitionPlaneTest, ShardedEvaluatorInternsOncePerQuery) {
  xml::Tree tree = TestTree(31);
  std::vector<automata::Mfa> mfas = TestQueries(31, 6);
  std::vector<const automata::Mfa*> ptrs;
  for (const automata::Mfa& m : mfas) ptrs.push_back(&m);

  // Solo references with private planes: the per-query intern totals the
  // sharded pass must not exceed (PR 4 paid them once PER SHARD).
  std::vector<std::vector<xml::NodeId>> want;
  std::vector<int64_t> solo_interned;
  for (const automata::Mfa& mfa : mfas) {
    HypeOptions options;
    options.enable_jump = false;
    HypeEvaluator solo(tree, mfa, options);
    want.push_back(solo.Eval(tree.root()));
    solo_interned.push_back(solo.stats().configs_interned);
  }

  TransitionPlaneStore store(tree, nullptr);
  exec::ShardedOptions options;
  options.plane_store = &store;
  options.num_shards = 4;
  options.enable_jump = false;
  exec::ShardedBatchEvaluator eval(tree, ptrs, options);
  std::vector<std::vector<xml::NodeId>> got = eval.EvalAll(tree.root());
  for (size_t q = 0; q < mfas.size(); ++q) {
    EXPECT_EQ(got[q], want[q]) << "query " << q;
    // One shared plane per query: the shard engines TOGETHER intern at most
    // what one solo engine does (the probe may have paid for part of it).
    EXPECT_LE(eval.merged_stats(q).configs_interned, solo_interned[q])
        << "query " << q;
    EXPECT_EQ(store.For(&mfas[q])->configs_interned(), solo_interned[q])
        << "query " << q;
  }

  // Warm start: the whole sharded pass re-runs without a single plane
  // insertion (engine counters are cumulative, so the per-query attribution
  // repeats unchanged while the plane totals stay flat).
  std::vector<int64_t> cold_merged;
  for (size_t q = 0; q < mfas.size(); ++q) {
    cold_merged.push_back(eval.merged_stats(q).configs_interned);
  }
  std::vector<std::vector<xml::NodeId>> again = eval.EvalAll(tree.root());
  for (size_t q = 0; q < mfas.size(); ++q) {
    EXPECT_EQ(again[q], want[q]);
    EXPECT_EQ(eval.merged_stats(q).configs_interned, cold_merged[q])
        << "query " << q;
    EXPECT_EQ(store.For(&mfas[q])->configs_interned(), solo_interned[q])
        << "query " << q;
  }
}

// Cold-start interning from many threads at once: every thread drives its
// own engine over the SAME shared planes. Answers must match the solo
// reference on every thread; runs TSan-clean (ctest -L concurrency).
TEST(TransitionPlaneConcurrencyTest, ConcurrentColdStartIsBitIdentical) {
  for (int round = 0; round < 2; ++round) {
    xml::Tree tree = TestTree(41 + round);
    std::vector<automata::Mfa> mfas = TestQueries(41 + round, 4);
    std::vector<std::vector<xml::NodeId>> want;
    for (const automata::Mfa& mfa : mfas) {
      HypeEvaluator solo(tree, mfa);
      want.push_back(solo.Eval(tree.root()));
    }
    TransitionPlaneStore store(tree, nullptr);
    std::vector<std::shared_ptr<TransitionPlane>> planes;
    for (const automata::Mfa& mfa : mfas) planes.push_back(store.For(&mfa));

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = 0; q < mfas.size(); ++q) {
          HypeOptions options;
          options.transition_plane = planes[q];
          HypeEvaluator eval(tree, mfas[q], options);
          for (int rep = 0; rep < 3; ++rep) {
            if (eval.Eval(tree.root()) != want[q]) ++failures[t];
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "thread " << t;
    }
    // Every insertion is attributed somewhere: plane totals stay the solo
    // totals no matter how many threads raced the cold start.
    for (size_t q = 0; q < mfas.size(); ++q) {
      HypeEvaluator solo(tree, mfas[q]);
      solo.Eval(tree.root());
      EXPECT_EQ(planes[q]->configs_interned(),
                solo.stats().configs_interned + 0)
          << "query " << q;
    }
  }
}

TEST(TransitionPlaneStoreTest, KeepAlivePinsAndEvictionSparesInUsePlanes) {
  auto t = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(t.ok());
  const xml::Tree& tree = t.value();

  TransitionPlaneStore::Options options;
  options.capacity = 1;
  TransitionPlaneStore store(tree, nullptr, options);

  auto mfa_of = [](const char* q) {
    auto parsed = xpath::ParseQuery(q);
    EXPECT_TRUE(parsed.ok());
    return std::make_shared<const automata::Mfa>(
        automata::CompileQuery(parsed.value()));
  };
  std::shared_ptr<const automata::Mfa> m1 = mfa_of("a/b");
  std::shared_ptr<const automata::Mfa> m2 = mfa_of("a/c");
  std::shared_ptr<const automata::Mfa> m3 = mfa_of("//b");

  // Hold the first plane (an engine would); drop the second immediately.
  std::shared_ptr<TransitionPlane> held = store.For(m1.get(), nullptr, m1);
  store.For(m2.get(), nullptr, m2);
  EXPECT_EQ(store.size(), 2u);  // m1 in use, m2 unused but within... capacity 1
  store.For(m3.get(), nullptr, m3);
  // m2 (unused) was evicted to make room; m1 survives because `held` pins it.
  EXPECT_LE(store.size(), 2u);
  std::shared_ptr<TransitionPlane> held_again = store.For(m1.get());
  EXPECT_EQ(held_again.get(), held.get());
}

TEST(TransitionPlaneTest, PlaneSeededFromPrebuiltCompiledMfa) {
  xml::Tree tree = TestTree(51);
  std::vector<automata::Mfa> mfas = TestQueries(51, 3);
  for (const automata::Mfa& mfa : mfas) {
    auto compiled = std::make_shared<const automata::CompiledMfa>(
        automata::CompiledMfa::Build(mfa));
    TransitionPlaneStore store(tree, nullptr);
    std::shared_ptr<TransitionPlane> plane = store.For(&mfa, compiled);
    EXPECT_EQ(&plane->compiled(), compiled.get());  // no re-flattening
    HypeOptions options;
    options.transition_plane = plane;
    HypeEvaluator eval(tree, mfa, options);
    HypeEvaluator solo(tree, mfa);
    EXPECT_EQ(eval.Eval(tree.root()), solo.Eval(tree.root()));
  }
}

// A plane over a small tree that interns a handful of configurations costs a
// few KB of heap, and ApproxBytes() reports that cost: its allocated chunks,
// packed payloads, transition rows and hash indexes, checked against the
// live heap blocks allocated through operator new while the plane was built
// and evaluated over.
TEST(TransitionPlaneTest, ApproxBytesTracksTheHeapOfASmallPlane) {
  auto t = xml::ParseXml(
      "<r><a><t>alpha</t><b><t/><c/></b></a><a><t>beta</t></a><b><c/></b>"
      "</r>");
  ASSERT_TRUE(t.ok());
  const xml::Tree& tree = t.value();
  auto query =
      xpath::ParseQuery("r/a[t/text() = 'alpha']//c | r//b[c]/t | //a/b");
  ASSERT_TRUE(query.ok());
  const automata::Mfa mfa = automata::CompileQuery(query.value());
  // Compiled-query memory is not the plane's: build the mirror outside the
  // measured window.
  auto compiled = std::make_shared<const automata::CompiledMfa>(
      automata::CompiledMfa::Build(mfa));
  std::vector<xml::NodeId> want = HypeEvaluator(tree, mfa).Eval(tree.root());

  const int64_t before = g_live_heap_bytes.load(std::memory_order_relaxed);
  auto plane = std::make_shared<TransitionPlane>(tree, mfa, compiled, nullptr);
  {
    HypeOptions options;
    options.transition_plane = plane;
    HypeEvaluator eval(tree, mfa, options);
    EXPECT_EQ(eval.Eval(tree.root()), want);
  }
  const int64_t heap = g_live_heap_bytes.load(std::memory_order_relaxed) -
                       before;
  const int64_t reported = plane->ApproxBytes();
  EXPECT_GE(plane->configs_interned(), 3);
  EXPECT_LE(plane->configs_interned(), 16);
  EXPECT_LT(heap, 16 * 1024) << "the plane's heap must follow what it interns";
  // The heap growth is the plane's own blocks plus the shared_ptr control
  // block and the chunk blocks' headers, which ApproxBytes() leaves out.
  EXPECT_GE(reported, heap - 128) << "heap " << heap;
  EXPECT_LE(reported, heap) << "heap " << heap;
}

}  // namespace
}  // namespace smoqe::hype

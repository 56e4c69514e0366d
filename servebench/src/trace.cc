// `servebench trace DIR`: the traced run. Replays the serve phase's seeded
// inputs through each layer's public functions, timing every call into a
// layer from outside with a span, and reads counts from the layers' stats
// accessors at the same boundaries.
//
// The replay mirrors exec::QueryService's dispatch path as of this commit:
// reads are grouped into admission batches by the service's own rule
// (max_batch / max_delay over the SCHEDULED arrivals, so the grouping and
// every count below are deterministic); each batch member goes through
// RoleCatalog::Acquire (tenant_mix), then RewriteCache::Get or
// Entry::Compile, new MFAs through TransitionPlaneStore::For, and each
// role group through ShardedBatchEvaluator::EvalAll with the evaluator
// cached per MFA set (LRU of four, as the service caches it). Durable
// writes go WalWriter::Append, Sync, EpochPublisher::Apply, and
// WriteSnapshot every snapshot_every writes; after each write the replay
// starts a fresh plane store and drops its evaluators, as
// QueryService::ApplyWrite does. Writes scheduled before a batch's first
// read are applied first, as the dispatcher drains writes ahead of batches.
//
// Outputs: trace.json (per-layer metrics), spans.jsonl (every span, kept in
// memory until the end) and layers.md (self time per layer).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/thread_pool.h"
#include "exec/sharded_eval.h"
#include "helpers.h"
#include "hype/batch_hype.h"
#include "hype/transition_plane.h"
#include "inputs.h"
#include "policy/policy_parser.h"
#include "policy/role_catalog.h"
#include "report.h"
#include "rewrite/rewrite_cache.h"
#include "storage/durable_epoch.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "view/view_parser.h"
#include "xml/parser.h"
#include "xml/plane_epoch.h"

namespace servebench {
namespace {

namespace exec = smoqe::exec;
namespace hype = smoqe::hype;
namespace policy = smoqe::policy;
namespace storage = smoqe::storage;
using Clock = std::chrono::steady_clock;
using MfaPtr = std::shared_ptr<const smoqe::automata::Mfa>;

// QueryServiceOptions defaults the replay mirrors.
constexpr size_t kMaxBatch = 16;
constexpr int64_t kMaxDelayUs = 200;
constexpr size_t kCacheCapacity = 1024;
constexpr size_t kMaxCachedEvaluators = 4;

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int32_t Begin(const char* name, int32_t parent, int64_t request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  // Ends span `id`; returns its duration in ms.
  double End(int32_t id) {
    spans_[id].end_ns = Now();
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Everything the traced replay measures. Per-call times include the
// warm-up's calls; counts and ratios cover the replayed prefix only.
struct Tally {
  std::vector<double> acquire_cold_ms, acquire_warm_ms;
  std::vector<double> get_hit_ms, get_miss_ms;
  std::vector<double> plane_for_ms;
  std::vector<double> eval_fresh_ms, eval_reused_ms;
  std::vector<double> wal_append_ms, fsync_ms, publish_ms, snapshot_ms;
  std::vector<double> stage_sum_ms;  // per replayed read: its batch's span
  std::vector<double> interned_after_write;
  int64_t queries_evaluated = 0;  // MFA slots through EvalAll
  int64_t eval_calls = 0;
  int64_t units = 0, groups = 0;
  int64_t fallback = 0, routed = 0;  // fallback vs all queries routed
  int64_t nodes_walked = 0, subtrees_skipped = 0, positions_jumped = 0;
  int64_t elements_visited = 0, elements_total = 0, cans_vertices = 0;
  int64_t configs_interned = 0;
  int64_t wal_bytes = 0, snapshot_bytes = 0, writes = 0;
  int64_t rewrite_hits = 0, rewrite_misses = 0;
  int64_t role_hits = 0, role_compiles = 0;
  std::map<const smoqe::automata::Mfa*, int64_t> mfa_states;
};

class Replay {
 public:
  explicit Replay(const Inputs& in) : in_(in), pool_(0) {}

  void Run(const std::string& dir) {
    const Workload& w = in_.workload;
    const bool durable = w.write_rate > 0;
    // Set-up, with the xml and storage set-up costs as their own spans.
    if (durable) {
      store_dir_ = dir + "/trace_store";
      std::filesystem::remove_all(store_dir_);
      std::filesystem::copy(in_.store0(), store_dir_,
                            std::filesystem::copy_options::recursive);
      storage::RecoveryReport report;
      int32_t s = tracer_.Begin("storage.recover", -1, -1);
      auto epoch = OrDie(storage::Recover(store_dir_, &report), "recover");
      recover_ms_ = tracer_.End(s);
      records_replayed_ = report.records_replayed;
      publisher_ = std::make_unique<xml::EpochPublisher>(
          xml::Tree(*epoch.tree), xml::DocPlane(*epoch.plane), epoch.version);
      const std::string wal_path = store_dir_ + "/" + storage::kWalName;
      auto scan = OrDie(storage::ScanWal(wal_path), "scan wal");
      wal_ = OrDie(storage::WalWriter::Open(wal_path, scan.valid_end),
                   "open wal");
      epoch_ = publisher_->Snapshot();
      tree_ = epoch_.tree.get();
      plane_ = epoch_.plane.get();
    }
    // The parse and plane-build costs are measured on the document text in
    // every workload (durable_mixed serves a recovered copy of it).
    int32_t s = tracer_.Begin("xml.parse", -1, -1);
    parsed_ = OrDie(xml::ParseXml(in_.doc_xml), "parse document");
    parse_ms_ = tracer_.End(s);
    s = tracer_.Begin("xml.plane_build", -1, -1);
    built_plane_ = xml::DocPlane::Build(parsed_);
    plane_build_ms_ = tracer_.End(s);
    if (!durable) {
      tree_ = &parsed_;
      plane_ = &built_plane_;
    }
    if (w.roles > 0) {
      policy_ = std::make_unique<policy::Policy>(
          OrDie(policy::ParsePolicy(in_.spec), "parse policy"));
      catalog_ = std::make_unique<policy::RoleCatalog>(*policy_, *tree_,
                                                       nullptr);
    } else {
      view_ = std::make_unique<smoqe::view::ViewDef>(
          OrDie(smoqe::view::ParseView(in_.spec), "parse view"));
      cache_ = std::make_unique<smoqe::rewrite::RewriteCache>(
          view_.get(),
          smoqe::rewrite::RewriteCacheOptions{.capacity = kCacheCapacity});
    }
    NewPlaneStore();

    // Warm-up, batched as the service sees it (all at once, then, single
    // tenant, each query alone): per-call times only, no counts.
    std::vector<size_t> warm;
    for (size_t i = 0; i < in_.reads.size(); ++i) {
      if (in_.reads[i].phase == 'w') warm.push_back(i);
    }
    for (size_t k = 0; k < warm.size(); k += kMaxBatch) {
      RunBatch({warm.begin() + k,
                warm.begin() + std::min(warm.size(), k + kMaxBatch)},
               false);
    }
    if (w.roles == 0) {
      for (size_t i : warm) RunBatch({i}, false);
    }
    // The measured prefix of the open-loop schedule.
    const int64_t horizon = static_cast<int64_t>(w.replay_seconds * 1e6);
    std::vector<size_t> reads;
    for (size_t i = 0; i < in_.reads.size(); ++i) {
      if (in_.reads[i].phase == 'o' && in_.reads[i].due_us < horizon) {
        reads.push_back(i);
      }
    }
    std::vector<xml::TreeDelta> deltas;
    for (size_t j = 0; j < in_.write_due_us.size(); ++j) {
      if (in_.write_due_us[j] >= horizon) break;
      deltas.push_back(OrDie(
          xml::TreeDelta::Deserialize(in_.deltas[w.wal_tail + j]), "delta"));
    }
    size_t r = 0, j = 0;
    while (r < reads.size() || j < deltas.size()) {
      if (j < deltas.size() &&
          (r == reads.size() ||
           in_.write_due_us[j] <= in_.reads[reads[r]].due_us)) {
        ApplyWrite(deltas[j], static_cast<int64_t>(j));
        ++j;
        continue;
      }
      const int64_t first_due = in_.reads[reads[r]].due_us;
      std::vector<size_t> batch;
      while (r < reads.size() && batch.size() < kMaxBatch &&
             in_.reads[reads[r]].due_us <= first_due + kMaxDelayUs) {
        batch.push_back(reads[r++]);
      }
      RunBatch(batch, true);
    }
    MeasureShardSpeedup();
    if (durable) {
      wal_.reset();
      std::filesystem::remove_all(store_dir_);
    }
  }

  void Write(const std::string& dir) const;

 private:
  struct CachedEvaluator {
    std::vector<MfaPtr> mfas;  // pointer-sorted
    std::unique_ptr<exec::ShardedBatchEvaluator> eval;
    hype::TransitionPlaneStore* store = nullptr;
    std::shared_ptr<policy::RoleCatalog::Entry> pin;
    int64_t last_used = 0;
  };

  exec::ShardedOptions ShardedOptionsFor(hype::TransitionPlaneStore* store) {
    exec::ShardedOptions o;
    o.plane = plane_;
    o.plane_store = store;
    o.pool = &pool_;
    return o;
  }

  void NewPlaneStore() {
    store_ = std::make_unique<hype::TransitionPlaneStore>(
        *tree_, nullptr,
        hype::TransitionPlaneStore::Options{.capacity = kCacheCapacity});
  }

  CachedEvaluator& EvaluatorFor(std::vector<MfaPtr> sorted,
                                hype::TransitionPlaneStore* store,
                                std::shared_ptr<policy::RoleCatalog::Entry> pin,
                                bool* reused) {
    ++clock_;
    for (auto& e : evaluators_) {
      if (e->store != store || e->mfas.size() != sorted.size()) continue;
      bool equal = true;
      for (size_t k = 0; k < sorted.size() && equal; ++k) {
        equal = e->mfas[k].get() == sorted[k].get();
      }
      if (equal) {
        e->last_used = clock_;
        *reused = true;
        return *e;
      }
    }
    *reused = false;
    if (evaluators_.size() >= kMaxCachedEvaluators) {
      size_t lru = 0;
      for (size_t e = 1; e < evaluators_.size(); ++e) {
        if (evaluators_[e]->last_used < evaluators_[lru]->last_used) lru = e;
      }
      evaluators_.erase(evaluators_.begin() + lru);
    }
    auto e = std::make_unique<CachedEvaluator>();
    e->mfas = std::move(sorted);
    e->eval = std::make_unique<exec::ShardedBatchEvaluator>(
        *tree_, Raw(e->mfas), ShardedOptionsFor(store));
    e->store = store;
    e->pin = std::move(pin);
    e->last_used = clock_;
    evaluators_.push_back(std::move(e));
    return *evaluators_.back();
  }

  void RunBatch(const std::vector<size_t>& members, bool measured) {
    const int64_t batch_id = static_cast<int64_t>(members.front());
    const int32_t root = tracer_.Begin("exec.batch", -1, batch_id);
    // Interning is counted on the plane stores this batch touches, read
    // before their first use (a catalog-wide sum would cost O(roles)).
    std::map<hype::TransitionPlaneStore*, int64_t> interned_before;
    struct Group {
      std::shared_ptr<policy::RoleCatalog::Entry> entry;
      std::vector<MfaPtr> mfas;
    };
    std::vector<Group> groups;
    std::set<const smoqe::automata::Mfa*> seen;
    for (size_t i : members) {
      const ReadOp& op = in_.reads[i];
      std::shared_ptr<policy::RoleCatalog::Entry> entry;
      if (op.role >= 0) {
        const int64_t compiles = catalog_->stats().compiles;
        const int32_t s = tracer_.Begin("policy.acquire", root, i);
        entry = OrDie(catalog_->Acquire(op.role), "acquire role");
        const double ms = tracer_.End(s);
        const bool cold = catalog_->stats().compiles > compiles;
        (cold ? t_.acquire_cold_ms : t_.acquire_warm_ms).push_back(ms);
        if (measured) ++(cold ? t_.role_compiles : t_.role_hits);
        if (entry->root_hidden()) continue;  // answers empty, no evaluation
      }
      const int64_t misses = entry ? entry->cache_stats().misses
                                   : cache_->stats().misses;
      const int32_t s = tracer_.Begin("rewrite.get", root, i);
      auto compiled = OrDie(entry ? entry->Compile(in_.queries[op.query])
                                  : cache_->Get(in_.queries[op.query]),
                            "compile query");
      const double ms = tracer_.End(s);
      const bool miss = (entry ? entry->cache_stats().misses
                               : cache_->stats().misses) > misses;
      (miss ? t_.get_miss_ms : t_.get_hit_ms).push_back(ms);
      if (measured) ++(miss ? t_.rewrite_misses : t_.rewrite_hits);
      MfaPtr mfa = compiled.mfa;
      if (!seen.insert(mfa.get()).second) continue;  // coalesced duplicate
      hype::TransitionPlaneStore& store =
          entry ? entry->planes() : *store_;
      interned_before.emplace(&store, store.stats().configs_interned);
      const int32_t p = tracer_.Begin("hype.plane_for", root, i);
      store.For(mfa.get(), compiled.compiled, mfa);
      const double pms = tracer_.End(p);
      t_.plane_for_ms.push_back(pms);
      t_.mfa_states[mfa.get()] = mfa->num_nfa_states() + mfa->num_afa_states();
      Group* g = nullptr;
      for (Group& cand : groups) {
        if (cand.entry == entry) g = &cand;
      }
      if (g == nullptr) {
        groups.push_back({entry, {}});
        g = &groups.back();
      }
      g->mfas.push_back(std::move(mfa));
    }
    for (Group& g : groups) {
      std::sort(g.mfas.begin(), g.mfas.end(),
                [](const MfaPtr& a, const MfaPtr& b) {
                  return a.get() < b.get();
                });
      hype::TransitionPlaneStore* store =
          g.entry ? &g.entry->planes() : store_.get();
      bool reused = false;
      const size_t n = g.mfas.size();
      const int32_t b = tracer_.Begin("exec.evaluator_for", root, batch_id);
      CachedEvaluator& cached =
          EvaluatorFor(std::move(g.mfas), store, g.entry, &reused);
      tracer_.End(b);
      const int32_t s = tracer_.Begin("exec.eval_all", root, batch_id);
      cached.eval->EvalAll(tree_->root());
      const double ms = tracer_.End(s);
      OkOrDie(cached.eval->last_status(), "EvalAll");
      (reused ? t_.eval_reused_ms : t_.eval_fresh_ms).push_back(ms);
      if (!measured) continue;
      const exec::ShardedStats& st = cached.eval->stats();
      ++t_.eval_calls;
      t_.queries_evaluated += static_cast<int64_t>(n);
      t_.units += st.num_units;
      t_.groups += st.num_groups;
      t_.fallback += st.num_fallback_queries;
      t_.routed += st.num_sharded_queries + st.num_fallback_queries +
                   st.num_dead_queries;
      t_.nodes_walked += st.pass.nodes_walked;
      t_.subtrees_skipped += st.pass.subtrees_skipped;
      t_.positions_jumped += st.pass.positions_jumped;
      for (size_t q = 0; q < n; ++q) {
        const hype::EvalStats& es = cached.eval->merged_stats(q);
        t_.elements_visited += es.elements_visited;
        t_.elements_total += es.elements_total;
        t_.cans_vertices += es.cans_vertices;
      }
    }
    const double batch_ms = tracer_.End(root);
    if (!measured) return;
    int64_t interned = 0;
    for (auto [store, before] : interned_before) {
      interned += store->stats().configs_interned - before;
    }
    t_.configs_interned += interned;
    if (after_write_) {
      t_.interned_after_write.push_back(static_cast<double>(interned));
      after_write_ = false;
    }
    for (size_t k = 0; k < members.size(); ++k) {
      t_.stage_sum_ms.push_back(batch_ms);
    }
  }

  void ApplyWrite(const xml::TreeDelta& delta, int64_t j) {
    const int32_t root = tracer_.Begin("exec.write", -1, -1 - j);
    const uint64_t offset = wal_->offset();
    int32_t s = tracer_.Begin("storage.wal_append", root, -1 - j);
    OkOrDie(wal_->Append(delta), "wal append");
    t_.wal_append_ms.push_back(tracer_.End(s));
    t_.wal_bytes += static_cast<int64_t>(wal_->offset() - offset);
    s = tracer_.Begin("storage.fsync", root, -1 - j);
    OkOrDie(wal_->Sync(), "wal sync");
    t_.fsync_ms.push_back(tracer_.End(s));
    s = tracer_.Begin("xml.publish", root, -1 - j);
    OkOrDie(publisher_->Apply(delta), "publish");
    t_.publish_ms.push_back(tracer_.End(s));
    ++t_.writes;
    if (++since_snapshot_ >= in_.workload.snapshot_every) {
      since_snapshot_ = 0;
      const xml::PlaneEpoch e = publisher_->Snapshot();
      s = tracer_.Begin("storage.snapshot", root, -1 - j);
      OkOrDie(storage::WriteSnapshot(store_dir_, *e.tree, *e.plane, e.version),
              "snapshot");
      t_.snapshot_ms.push_back(tracer_.End(s));
      t_.snapshot_bytes += static_cast<int64_t>(std::filesystem::file_size(
          store_dir_ + "/" + storage::SnapshotFileName(e.version)));
    }
    // As QueryService::ApplyWrite: serve the new epoch with a fresh plane
    // store and no cached evaluators (both referenced the old tree, so
    // they go before the old epoch is released).
    evaluators_.clear();
    store_.reset();
    epoch_ = publisher_->Snapshot();
    tree_ = epoch_.tree.get();
    plane_ = epoch_.plane.get();
    NewPlaneStore();
    after_write_ = true;
    tracer_.End(root);
  }

  // 1-thread BatchHypeEvaluator vs ShardedBatchEvaluator on one warm batch
  // of up to 16 queries: the view's query set (single tenant), or the pool
  // queries under whichever of the eight most requested roles walks the
  // most nodes (a role hiding most of the document would time only the
  // sharded evaluator's fixed cost). Medians of five timed passes each.
  void MeasureShardSpeedup() {
    std::vector<int> roles = {-1};
    if (catalog_) {
      std::map<int, int> count;
      for (const ReadOp& op : in_.reads) {
        if (op.phase == 'o') ++count[op.role];
      }
      std::vector<std::pair<int, int>> by_count;
      for (auto [role, c] : count) by_count.push_back({-c, role});
      std::sort(by_count.begin(), by_count.end());
      roles.clear();
      for (size_t k = 0; k < by_count.size() && k < 8; ++k) {
        roles.push_back(by_count[k].second);
      }
    }
    std::shared_ptr<policy::RoleCatalog::Entry> best_entry;
    std::vector<MfaPtr> best;
    int64_t best_walked = -1;
    for (int role : roles) {
      std::shared_ptr<policy::RoleCatalog::Entry> entry;
      if (role >= 0) {
        entry = OrDie(catalog_->Acquire(role), "acquire role");
        if (entry->root_hidden()) continue;
      }
      hype::TransitionPlaneStore* store =
          entry ? &entry->planes() : store_.get();
      std::vector<MfaPtr> mfas;
      for (size_t q = 0; q < std::min(in_.queries.size(), kMaxBatch); ++q) {
        auto c = OrDie(entry ? entry->Compile(in_.queries[q])
                             : cache_->Get(in_.queries[q]),
                       "compile query");
        store->For(c.mfa.get(), c.compiled, c.mfa);
        mfas.push_back(c.mfa);
      }
      hype::BatchHypeEvaluator probe(*tree_, Raw(mfas), SingleOptions(store));
      probe.EvalAll(tree_->root());
      if (probe.pass_stats().nodes_walked > best_walked) {
        best_walked = probe.pass_stats().nodes_walked;
        best = std::move(mfas);
        best_entry = std::move(entry);
      }
    }
    if (best.empty()) return;
    hype::TransitionPlaneStore* store =
        best_entry ? &best_entry->planes() : store_.get();
    hype::BatchHypeEvaluator single(*tree_, Raw(best), SingleOptions(store));
    exec::ShardedBatchEvaluator sharded(*tree_, Raw(best),
                                        ShardedOptionsFor(store));
    auto median_ms = [](const std::function<void()>& fn) {
      fn();  // warm
      std::vector<double> ms;
      for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
      std::sort(ms.begin(), ms.end());
      return ms[2];
    };
    single_ms_ = median_ms([&] { single.EvalAll(tree_->root()); });
    sharded_ms_ = median_ms([&] { sharded.EvalAll(tree_->root()); });
  }

  static std::vector<const smoqe::automata::Mfa*> Raw(
      const std::vector<MfaPtr>& mfas) {
    std::vector<const smoqe::automata::Mfa*> ptrs;
    for (const MfaPtr& m : mfas) ptrs.push_back(m.get());
    return ptrs;
  }

  hype::BatchHypeOptions SingleOptions(hype::TransitionPlaneStore* store) {
    hype::BatchHypeOptions o;
    o.plane = plane_;
    o.plane_store = store;
    return o;
  }

  const Inputs& in_;
  smoqe::common::ThreadPool pool_;
  Tracer tracer_;
  Tally t_;
  xml::Tree parsed_;
  xml::DocPlane built_plane_;
  const xml::Tree* tree_ = nullptr;
  const xml::DocPlane* plane_ = nullptr;
  std::unique_ptr<smoqe::view::ViewDef> view_;
  std::unique_ptr<smoqe::rewrite::RewriteCache> cache_;
  std::unique_ptr<policy::Policy> policy_;
  std::unique_ptr<policy::RoleCatalog> catalog_;
  std::unique_ptr<hype::TransitionPlaneStore> store_;
  std::vector<std::unique_ptr<CachedEvaluator>> evaluators_;
  int64_t clock_ = 0;
  // Durable replay state.
  std::string store_dir_;
  std::unique_ptr<xml::EpochPublisher> publisher_;
  std::unique_ptr<storage::WalWriter> wal_;
  xml::PlaneEpoch epoch_;
  int since_snapshot_ = 0;
  bool after_write_ = false;
  double recover_ms_ = 0, parse_ms_ = 0, plane_build_ms_ = 0;
  int64_t records_replayed_ = 0;
  double single_ms_ = 0, sharded_ms_ = 0;  // MeasureShardSpeedup
};

void Replay::Write(const std::string& dir) const {
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<int64_t> self = SelfTimes(spans);

  std::vector<double> stage = t_.stage_sum_ms;
  std::sort(stage.begin(), stage.end());
  const double queries = static_cast<double>(t_.queries_evaluated);
  int64_t mfa_states = 0;
  for (auto [mfa, states] : t_.mfa_states) mfa_states += states;
  const xml::EpochPublisher::Stats pub =
      publisher_ ? publisher_->stats() : xml::EpochPublisher::Stats{};
  const hype::PlaneStoreStats planes =
      catalog_ ? catalog_->plane_stats() : store_->stats();
  const policy::RoleCatalogStats roles =
      catalog_ ? catalog_->stats() : policy::RoleCatalogStats{};

  Json out;
  out.Num("stage_sum_p50_ms", Percentile(stage, 0.5));
  out.Int("replayed_reads", static_cast<int64_t>(stage.size()));
  out.Num("exec.eval_fresh_ms", Mean(t_.eval_fresh_ms));
  out.Num("exec.eval_reused_ms", Mean(t_.eval_reused_ms));
  out.Num("exec.shard_speedup", Ratio(single_ms_, sharded_ms_));
  out.Num("shard_single_ms", single_ms_);
  out.Num("shard_sharded_ms", sharded_ms_);
  out.Num("exec.units", Ratio(t_.units, t_.eval_calls));
  out.Num("exec.groups", Ratio(t_.groups, t_.eval_calls));
  out.Num("exec.fallback_frac", Ratio(t_.fallback, t_.routed));
  out.Num("hype.nodes_walked_per_query", Ratio(t_.nodes_walked, queries));
  out.Num("hype.pruned_frac",
          1.0 - Ratio(t_.elements_visited, t_.elements_total));
  out.Num("hype.subtrees_skipped_per_query",
          Ratio(t_.subtrees_skipped, queries));
  out.Num("hype.positions_jumped_per_query",
          Ratio(t_.positions_jumped, queries));
  out.Num("hype.cans_vertices_per_query", Ratio(t_.cans_vertices, queries));
  out.Num("hype.configs_interned_per_query",
          Ratio(t_.configs_interned, queries));
  out.Num("hype.configs_interned_after_write", Mean(t_.interned_after_write));
  out.Num("hype.plane_for_ms", Mean(t_.plane_for_ms));
  out.Num("hype.plane_bytes", static_cast<double>(planes.approx_bytes));
  out.Num("rewrite.hit_ratio",
          Ratio(t_.rewrite_hits, t_.rewrite_hits + t_.rewrite_misses));
  out.Num("rewrite.get_hit_ms", Mean(t_.get_hit_ms));
  out.Num("rewrite.get_miss_ms", Mean(t_.get_miss_ms));
  out.Num("automata.mfa_states_mean",
          Ratio(mfa_states, static_cast<double>(t_.mfa_states.size())));
  out.Num("policy.acquire_cold_ms", Mean(t_.acquire_cold_ms));
  out.Num("policy.acquire_warm_ms", Mean(t_.acquire_warm_ms));
  out.Num("policy.hit_ratio",
          Ratio(t_.role_hits, t_.role_hits + t_.role_compiles));
  out.Num("policy.resident_roles", static_cast<double>(roles.resident));
  out.Num("policy.planes_evicted", static_cast<double>(roles.planes_evicted));
  out.Num("xml.parse_ms", parse_ms_);
  out.Num("xml.plane_build_ms", plane_build_ms_);
  out.Num("xml.publish_ms", Mean(t_.publish_ms));
  out.Num("xml.planes_patched_frac",
          Ratio(pub.planes_patched, pub.epochs_published));
  out.Num("xml.replicas_cloned", static_cast<double>(pub.replicas_cloned));
  out.Num("storage.wal_append_ms", Mean(t_.wal_append_ms));
  out.Num("storage.fsync_ms", Mean(t_.fsync_ms));
  out.Num("storage.snapshot_ms", Mean(t_.snapshot_ms));
  out.Num("storage.wal_bytes_per_write", Ratio(t_.wal_bytes, t_.writes));
  out.Num("storage.snapshot_bytes_per_write",
          Ratio(t_.snapshot_bytes, t_.writes));
  out.Num("storage.recover_ms", recover_ms_);
  out.Num("storage.records_replayed", static_cast<double>(records_replayed_));
  // Timing-independent counts: two traced runs of one seed repeat them.
  out.Int("count.rewrite_misses", t_.rewrite_misses);
  out.Int("count.roles_compiled", t_.role_compiles);
  out.Int("count.configs_interned", t_.configs_interned);
  out.Int("count.nodes_walked", t_.nodes_walked);
  out.Int("count.wal_bytes", t_.wal_bytes);
  WriteFileOrDie(dir + "/trace.json", out.str());

  std::ostringstream lines;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    lines << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"self_ns\": " << self[i]
          << "}\n";
  }
  WriteFileOrDie(dir + "/spans.jsonl", lines.str());

  // Self time per layer over the measured spans (set-up spans included).
  std::map<std::string, std::pair<int64_t, int64_t>> layers;  // spans, ns
  int64_t total_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& l = layers[LayerOf(spans[i].name)];
    ++l.first;
    l.second += self[i];
    total_ns += self[i];
  }
  std::ostringstream md;
  md << "| layer | spans | self ms | self ms per replayed read | share |\n"
     << "| --- | ---: | ---: | ---: | ---: |\n";
  for (const auto& [layer, l] : layers) {
    char row[256];
    std::snprintf(row, sizeof(row), "| %s | %lld | %.3f | %.4f | %.1f%% |\n",
                  layer.c_str(), static_cast<long long>(l.first),
                  static_cast<double>(l.second) / 1e6,
                  Ratio(static_cast<double>(l.second) / 1e6,
                        static_cast<double>(stage.size())),
                  100.0 * Ratio(l.second, total_ns));
    md << row;
  }
  WriteFileOrDie(dir + "/layers.md", md.str());
}

}  // namespace

int Trace(const std::string& dir) {
  const Inputs in = Load(dir);
  Replay replay(in);
  replay.Run(dir);
  replay.Write(dir);
  return 0;
}

}  // namespace servebench

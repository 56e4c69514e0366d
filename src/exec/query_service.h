// QueryService: the concurrent front-end of the serving spine.
//
// One service serves one document epoch (xml::PlaneEpoch: a tree and its
// columnar plane) and owns the query -> MFA compilation cache
// (rewrite::RewriteCache -- view-rewriting or plain mode), the per-query
// transition-plane store (hype::TransitionPlaneStore -- compiled evaluation
// state shared across batches and shards), and the thread pool.
//
// Any number of client threads Submit query text and get a future;
// internally a dispatcher thread coalesces submissions into ADMISSION
// BATCHES -- a batch closes when it reaches `max_batch` queries or when its
// oldest entry has waited `max_delay` -- compiles the batch through the
// cache (duplicate texts in a batch are evaluated once and fanned out), and
// evaluates it as one sharded shared pass (exec::ShardedBatchEvaluator) over
// the pool. Answers are bit-identical to a solo HypeEvaluator run of each
// query, enforced by the randomized multi-client stress suite
// (tests/exec_service_test.cc).
//
// Reusable per-query state lives in exactly two places: the RewriteCache
// (the rewritten MFA Q', Section 5) and the plane store (HyPE's memoized
// lazy-DFA configurations, Section 6). Evaluators are not reused: each
// evaluation round builds one ShardedBatchEvaluator over its live MFAs and
// drops it when the round ends, so no shard scratch -- and no role
// partition -- outlives the batch that needed it. Later batches start warm
// from the plane store alone.
//
// The epoch is the one serving state of both modes. In-memory mode borrows
// the caller's tree (and plane, when given; otherwise the service builds
// one). Durable mode (QueryService::Open) serves the snapshot of its
// storage::DurableEpochStore and moves to the next one on every Apply.
//
// Multi-tenant mode (QueryServiceOptions::catalog): a Submit carrying a
// policy::RoleId compiles through the role's catalog partition and is
// evaluated only alongside same-role queries -- per-role rewrite caches and
// transition planes mean no role ever observes (or warms) another's compiled
// state. See policy/role_catalog.h.
//
// Threading model: clients touch only the pending queue (one mutex);
// the dispatcher alone touches the cache, the epoch and the evaluators, so
// none of them needs locking; shard walks fan out over the pool with
// shard-local engine state. Shutdown drains: every query submitted before
// the destructor runs is answered.

#ifndef SMOQE_EXEC_QUERY_SERVICE_H_
#define SMOQE_EXEC_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hype/index.h"
#include "hype/transition_plane.h"
#include "policy/role_catalog.h"
#include "rewrite/rewrite_cache.h"
#include "storage/durable_epoch.h"
#include "view/view_def.h"
#include "xml/doc_plane.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace smoqe::exec {

struct QueryServiceOptions {
  /// Non-null: queries are posed against the view and rewritten to source
  /// MFAs (Section 5); null: queries compile directly against the document.
  const view::ViewDef* view = nullptr;

  /// Optional subtree-label index over the served document (OptHyPE
  /// pruning, shared read-only across all shards).
  const hype::SubtreeLabelIndex* index = nullptr;

  /// Multi-tenant mode: a role catalog over the served document. A Submit
  /// carrying a role is compiled through the role's catalog partition --
  /// the (role, query)-keyed rewriting and the role-private transition
  /// planes -- and evaluated only alongside same-role queries; a Submit
  /// without a role uses the service-level `view`/cache exactly as before.
  /// The catalog (and its policy/tree/index) must outlive the service, and
  /// must be built over the same tree and index the service serves.
  policy::RoleCatalog* catalog = nullptr;

  /// Optional columnar plane of the served document; the service builds and
  /// owns one when null (one O(N) pass at construction, shared by every
  /// evaluator it ever creates).
  const xml::DocPlane* plane = nullptr;

  /// Evaluation pool width; 0 = hardware concurrency. Each pass targets
  /// twice the pool width in shard groups.
  int num_threads = 0;

  /// A batch dispatches as soon as it holds this many queries (0 is
  /// clamped to 1)...
  size_t max_batch = 16;

  /// ...or as soon as its oldest query has waited this long.
  std::chrono::microseconds max_delay{200};

  /// Admission control: Submit sheds with kResourceExhausted once this many
  /// queries are already pending (overload protection for the wire-protocol
  /// front end -- queueing unboundedly just converts overload into latency).
  /// 0 = unbounded (the pre-admission-control behavior).
  size_t max_queue = 4096;

  /// Age-based shedding: a query that waited in the pending queue longer
  /// than this by the time its batch is collected resolves with
  /// kResourceExhausted instead of being evaluated (stale work under
  /// overload). 0 = disabled.
  std::chrono::microseconds max_queue_age{0};

  /// Node entries between cancellation/deadline checks inside the
  /// evaluation drivers (see common/cancellation.h); bounds how late an
  /// abort can land.
  int32_t checkpoint_interval = 1024;

  /// Non-empty: the service is DURABLE -- construct it with
  /// QueryService::Open, which recovers (or initializes) a
  /// storage::DurableEpochStore in this directory and serves the recovered
  /// epoch. Apply() then WAL-logs and fsyncs every delta before it
  /// publishes (storage/wal.h design note). A durable service owns its
  /// document, so `index`, `catalog`, and `plane` -- references into an
  /// externally owned tree -- are rejected by Open.
  std::string storage_dir = {};

  /// Durable mode only: WAL records between snapshot compactions
  /// (storage::StorageOptions::snapshot_every).
  int snapshot_every = 64;
};

/// Per-query submission controls. Default-constructed = the old behavior
/// (no deadline, not cancellable).
struct SubmitOptions {
  /// The query resolves with kDeadlineExceeded once this expires --
  /// including mid-evaluation (the batch aborts and the survivors retry
  /// under their own deadlines).
  Deadline deadline;

  /// Client-owned cancellation token; Cancel() resolves the query with
  /// kCancelled at the service's next checkpoint. Must outlive the future's
  /// resolution.
  CancelToken* cancel = nullptr;

  /// The submitting tenant's role (requires QueryServiceOptions::catalog;
  /// rejected at admission otherwise). The query is answered over the
  /// role's security view; a role whose root is denied answers the empty
  /// node set (not an error) for every well-formed query.
  policy::RoleId role = policy::kNoRole;

  /// Bound on re-evaluation rounds for THIS query inside the batch's
  /// min-deadline retry loop: each time a sibling's deadline/cancellation
  /// aborts the shared pass, the survivors retry (with exponential backoff)
  /// and burn one retry each. Past the bound the query resolves
  /// kUnavailable instead of re-evaluating -- a pathological batch mix can
  /// no longer pin a query in the dispatcher indefinitely. The default
  /// covers the worst case of a default-sized batch (every sibling aborts
  /// once); 0 = never retry.
  int max_retries = 16;
};

/// Counter snapshot returned by QueryService::stats(): submission/answer
/// totals, admission-batch shape (how batches closed: full vs aged out),
/// duplicate coalescing, role groups, retries, durable writes, and the
/// RewriteCache hit/miss/eviction counters. bench_parallel prints one per
/// smoke configuration.
struct QueryServiceStats {
  int64_t queries_submitted = 0;
  int64_t queries_answered = 0;  // includes failures
  int64_t queries_failed = 0;    // parse/rewrite errors
  int64_t batches = 0;
  int64_t batches_full = 0;  // admission closed by reaching max_batch
  int64_t batches_aged = 0;  // admission closed by max_delay (or shutdown)
  int64_t max_batch_seen = 0;
  int64_t coalesced_duplicates = 0;  // same-MFA queries evaluated once
  // Always zero: the service no longer keeps sharded evaluators across
  // batches (each evaluation round builds its own), so none is ever
  // reused. Kept because the serving benchmark reads the field.
  int64_t evaluator_reuses = 0;
  int64_t queries_timed_out = 0;  // resolved kDeadlineExceeded
  int64_t queries_shed = 0;       // resolved kResourceExhausted (admission)
  int64_t queries_cancelled = 0;  // resolved kCancelled (client token)
  int64_t role_queries = 0;       // submissions carrying a role
  int64_t role_groups = 0;        // per-role evaluation groups dispatched
  int64_t role_denied_empty = 0;  // root-hidden roles answered empty
  // Re-evaluation rounds summed over queries: a query that survives an
  // aborted shared pass and re-runs counts one per extra round. Zero in
  // steady state (no deadline/cancel churn inside batches) -- bench_parallel
  // smoke gates on zero growth.
  int64_t queries_retried = 0;
  int64_t retries_exhausted = 0;  // resolved kUnavailable at max_retries
  int64_t writes_applied = 0;     // durable deltas published via Apply()
  rewrite::RewriteCacheStats cache;
};

class QueryService {
 public:
  using Answer = StatusOr<std::vector<xml::NodeId>>;

  /// `tree` (and the view/index/plane, when set) must outlive the service.
  explicit QueryService(const xml::Tree& tree,
                        QueryServiceOptions options = {});

  /// Durable construction (options.storage_dir must be set): opens -- and,
  /// when the directory holds state, RECOVERS -- a DurableEpochStore there
  /// and serves its epoch. `initial` seeds a fresh directory as version 0
  /// and is ignored when state already exists. The service owns the
  /// recovered document, so options carrying references into an external
  /// tree (`index`, `catalog`, `plane`) are rejected.
  static StatusOr<std::unique_ptr<QueryService>> Open(
      xml::Tree initial, QueryServiceOptions options);

  /// Drains and answers everything already submitted, then stops
  /// (delegates to Shutdown()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Stops admission, drains, and joins the dispatcher. Idempotent and
  /// thread-safe: concurrent callers all block until the drain completes.
  /// A Submit racing Shutdown is either admitted into the drain (its
  /// future resolves to the query's answer) or fails fast with a status --
  /// it never hangs on a future no dispatcher will fulfill. Must not be
  /// called from a Submit callback or the dispatcher itself.
  void Shutdown();

  /// Thread-safe; callable from any number of client threads. The future
  /// resolves to the sorted answer-node ids, or to the parse/rewrite error.
  /// After Shutdown (or the destructor) has begun, resolves to an error
  /// immediately. Every future resolves with exactly one terminal status:
  /// kOk, the compile error, kDeadlineExceeded, kCancelled,
  /// kResourceExhausted (admission shed), or kUnavailable (transient
  /// evaluation failure; safe to retry).
  std::future<Answer> Submit(std::string query_text,
                             SubmitOptions submit_options = {});

  /// Submit + wait, for single-shot callers.
  Answer Query(std::string query_text);

  /// Durable write (Open-constructed services only): WAL-append + fsync the
  /// delta, publish it as the next epoch, and switch serving to the new
  /// document before returning OK -- queries admitted after Apply returns
  /// evaluate against the new epoch. Thread-safe; writes are serialized
  /// through the dispatcher ahead of query batches. kFailedPrecondition for
  /// stale deltas (delta.from_version() != document_version()), for
  /// non-durable services, and after a WAL failure wedged the store.
  Status Apply(xml::TreeDelta delta);

  /// The served document version: 0 for an in-memory service, the durable
  /// epoch's version otherwise. Thread-safe.
  uint64_t document_version() const;

  /// The underlying durable store (null for in-memory services) -- stats,
  /// recovery report, storage dir. The store's Apply must NOT be called
  /// directly while the service is live; use QueryService::Apply.
  const storage::DurableEpochStore* storage() const { return store_.get(); }

  /// Snapshot of the counters (thread-safe).
  QueryServiceStats stats() const;

  int num_threads() const { return pool_.num_threads(); }

 private:
  struct Pending {
    std::string text;
    std::promise<Answer> promise;
    std::chrono::steady_clock::time_point enqueued;
    Deadline deadline;
    CancelToken* cancel = nullptr;
    policy::RoleId role = policy::kNoRole;
    int max_retries = 16;
  };

  // A durable write waiting for the dispatcher. The promise resolves with
  // the store's verdict once the delta is fsync'd and published (or
  // rejected).
  struct PendingWrite {
    xml::TreeDelta delta;
    std::promise<Status> promise;
  };

  // Shared delegating constructor: serves `epoch`; `store` is null in
  // in-memory mode.
  QueryService(xml::PlaneEpoch epoch,
               std::unique_ptr<storage::DurableEpochStore> store,
               QueryServiceOptions options);

  void DispatcherLoop();
  void ProcessBatch(std::vector<Pending> batch);
  // Dispatcher-thread only: publishes one durable delta and, on success,
  // swaps serving to the new epoch with a fresh plane store (its planes
  // interned against the old tree).
  Status ApplyWrite(const xml::TreeDelta& delta);

  QueryServiceOptions options_;
  // Durable mode only: the store whose snapshots `epoch_` follows.
  std::unique_ptr<storage::DurableEpochStore> store_;
  // The served tree and plane, in both modes: borrowed from the caller (the
  // plane built here when none was given) in in-memory mode, the store's
  // current snapshot in durable mode. ProcessBatch reads it on the
  // dispatcher thread, which also runs every swap, so a batch never sees
  // two epochs.
  xml::PlaneEpoch epoch_;
  // One interning universe per compiled query for every evaluator this
  // service creates: shard engines share planes within a batch, and
  // successive batches start warm. Planes are seeded from the
  // RewriteCache's CompiledMfa mirrors. Rebuilt on every durable epoch swap
  // (planes intern against one tree).
  std::unique_ptr<hype::TransitionPlaneStore> plane_store_;
  common::ThreadPool pool_;
  rewrite::RewriteCache cache_;  // dispatcher-thread only

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  std::deque<PendingWrite> writes_;  // drained ahead of query batches
  QueryServiceStats stats_;
  bool stop_ = false;
  std::once_flag join_once_;  // exactly one Shutdown caller joins

  std::thread dispatcher_;  // constructed last, joined first
};

}  // namespace smoqe::exec

#endif  // SMOQE_EXEC_QUERY_SERVICE_H_

#include "exec/query_service.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "exec/sharded_eval.h"

namespace smoqe::exec {

namespace {

// Compiled queries kept hot: the RewriteCache's capacity and the plane
// store's soft cap on retained planes.
constexpr size_t kCompiledQueryCapacity = 1024;

// Normalized before the dispatcher thread (a later member) can observe it.
QueryServiceOptions Validated(QueryServiceOptions options) {
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

// The in-memory epoch: the caller's tree, and the caller's plane or one
// built here. Borrowed pointers alias an empty owner, so the epoch never
// frees them.
xml::PlaneEpoch BorrowedEpoch(const xml::Tree& tree,
                              const xml::DocPlane* plane) {
  xml::PlaneEpoch epoch;
  epoch.tree = std::shared_ptr<const xml::Tree>(std::shared_ptr<void>(), &tree);
  epoch.plane =
      plane != nullptr
          ? std::shared_ptr<const xml::DocPlane>(std::shared_ptr<void>(), plane)
          : std::make_shared<const xml::DocPlane>(xml::DocPlane::Build(tree));
  return epoch;
}

std::unique_ptr<hype::TransitionPlaneStore> NewPlaneStore(
    const xml::PlaneEpoch& epoch, const hype::SubtreeLabelIndex* index) {
  return std::make_unique<hype::TransitionPlaneStore>(
      *epoch.tree, index,
      hype::TransitionPlaneStore::Options{.capacity = kCompiledQueryCapacity});
}

}  // namespace

QueryService::QueryService(const xml::Tree& tree, QueryServiceOptions options)
    : QueryService(BorrowedEpoch(tree, options.plane), nullptr, options) {}

QueryService::QueryService(xml::PlaneEpoch epoch,
                           std::unique_ptr<storage::DurableEpochStore> store,
                           QueryServiceOptions options)
    : options_(Validated(std::move(options))),
      store_(std::move(store)),
      epoch_(std::move(epoch)),
      plane_store_(NewPlaneStore(epoch_, options_.index)),
      pool_(options_.num_threads),
      cache_(options_.view, {.capacity = kCompiledQueryCapacity}),
      dispatcher_([this] { DispatcherLoop(); }) {}

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    xml::Tree initial, QueryServiceOptions options) {
  if (options.storage_dir.empty()) {
    return Status::InvalidArgument(
        "QueryService::Open requires options.storage_dir");
  }
  if (options.index != nullptr || options.catalog != nullptr ||
      options.plane != nullptr) {
    // All three reference an externally owned tree; a durable service owns
    // (and on recovery REPLACES) its document, so they cannot match it.
    return Status::InvalidArgument(
        "a durable service owns its document: index/catalog/plane options "
        "are incompatible with storage_dir");
  }
  storage::StorageOptions storage_options;
  storage_options.snapshot_every = options.snapshot_every;
  auto store = storage::DurableEpochStore::Open(
      options.storage_dir, storage_options, std::move(initial));
  if (!store.ok()) return store.status();
  xml::PlaneEpoch epoch = store.value()->Snapshot();
  return std::unique_ptr<QueryService>(new QueryService(
      std::move(epoch), std::move(store.value()), std::move(options)));
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Notify UNDER the lock: an unlocked notify could touch the condition
    // variable after a racing destructor finished tearing it down.
    cv_.notify_all();
  }
  // First caller joins; concurrent callers block here until the join
  // completes, so Shutdown() never returns with the dispatcher live.
  std::call_once(join_once_, [this] { dispatcher_.join(); });
}

std::future<QueryService::Answer> QueryService::Submit(
    std::string query_text, SubmitOptions submit_options) {
  Pending p;
  p.text = std::move(query_text);
  p.enqueued = std::chrono::steady_clock::now();
  p.deadline = submit_options.deadline;
  p.cancel = submit_options.cancel;
  p.role = submit_options.role;
  p.max_retries = submit_options.max_retries < 0 ? 0
                                                 : submit_options.max_retries;
  std::future<Answer> result = p.promise.get_future();
  // Injected admission failure (chaos suite): resolves the future before the
  // query ever reaches the queue, like a real overload shed would.
  Status admit = Status::OK();
  if (p.role != policy::kNoRole && options_.catalog == nullptr) {
    admit = Status::InvalidArgument(
        "role-scoped Submit on a service with no role catalog");
  }
  SMOQE_FAULT_HIT(FaultSite::kServiceAdmit,
                  [&](Status s) { admit = std::move(s); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      p.promise.set_value(
          Status::FailedPrecondition("query service is shutting down"));
      return result;
    }
    ++stats_.queries_submitted;
    // Queue-depth admission control: past `max_queue` pending queries the
    // service is not keeping up, and queueing further only converts the
    // overload into unbounded latency -- shed instead, and let the client
    // retry with backoff.
    if (admit.ok() && options_.max_queue > 0 &&
        pending_.size() >= options_.max_queue) {
      admit = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(pending_.size()) +
          " pending)");
    }
    if (!admit.ok()) {
      ++stats_.queries_answered;
      if (admit.code() == StatusCode::kResourceExhausted) {
        ++stats_.queries_shed;
      } else {
        ++stats_.queries_failed;
      }
      p.promise.set_value(std::move(admit));
      return result;
    }
    if (p.role != policy::kNoRole) ++stats_.role_queries;
    pending_.push_back(std::move(p));
    // Under the lock for the same lifetime reason as in Shutdown: after we
    // release mu_, a racing Shutdown/destructor may run to completion, and
    // cv_ must not be touched past that point.
    cv_.notify_all();
  }
  return result;
}

QueryService::Answer QueryService::Query(std::string query_text) {
  return Submit(std::move(query_text)).get();
}

Status QueryService::Apply(xml::TreeDelta delta) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "Apply on an in-memory service (construct with QueryService::Open)");
  }
  PendingWrite w;
  w.delta = std::move(delta);
  std::future<Status> result = w.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::FailedPrecondition("query service is shutting down");
    }
    writes_.push_back(std::move(w));
    cv_.notify_all();
  }
  return result.get();
}

uint64_t QueryService::document_version() const {
  return store_ != nullptr ? store_->version() : 0;
}

Status QueryService::ApplyWrite(const xml::TreeDelta& delta) {
  Status s = store_->Apply(delta);
  if (!s.ok()) return s;
  // Swap serving to the just-published epoch. The transition-plane store
  // goes with the old tree (its planes interned against it); the
  // RewriteCache survives -- compiled MFAs are label-level,
  // document-independent.
  epoch_ = store_->Snapshot();
  plane_store_ = NewPlaneStore(epoch_, options_.index);
  return Status::OK();
}

QueryServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void QueryService::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock,
             [this] { return stop_ || !pending_.empty() || !writes_.empty(); });
    // Durable writes drain ahead of query batches: a delta admitted before
    // a query was admitted publishes before that query evaluates, so
    // Apply-then-Submit from one client always sees its own write.
    while (!writes_.empty()) {
      PendingWrite write = std::move(writes_.front());
      writes_.pop_front();
      lock.unlock();
      Status applied = ApplyWrite(write.delta);
      lock.lock();
      if (applied.ok()) ++stats_.writes_applied;
      write.promise.set_value(std::move(applied));
    }
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
#ifdef SMOQE_FAULT_INJECTION
    if (FaultInjector::armed()) {
      // Injected dispatcher stall (the aged-batch regression + chaos
      // suite): sleep OUTSIDE the lock so clients keep submitting while
      // the dispatcher is wedged -- exactly the storm of wakeups-past-
      // deadline the admission loop's age re-check below must survive.
      lock.unlock();
      SMOQE_FAULT_DELAY_POINT(FaultSite::kServiceDispatch);
      lock.lock();
    }
#endif
    // Admission: hold the batch open until it is full or its oldest entry
    // has aged out (stop closes it immediately -- drain fast). The age is
    // re-checked on EVERY wakeup: cv_ wakeups caused by further Submits
    // (or spuriously) land back here, and without the explicit now() check
    // an already-aged batch would re-enter wait_until instead of closing
    // -- each extra pass is one avoidable syscall, and the batch's age
    // bound silently stops being the code's loop invariant.
    const auto deadline = pending_.front().enqueued + options_.max_delay;
    while (!stop_ && pending_.size() < options_.max_batch &&
           std::chrono::steady_clock::now() < deadline) {
      cv_.wait_until(lock, deadline);
    }
    std::vector<Pending> batch;
    const size_t take = std::min(pending_.size(), options_.max_batch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    ++stats_.batches;
    if (batch.size() >= options_.max_batch) {
      ++stats_.batches_full;
    } else {
      ++stats_.batches_aged;
    }
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int64_t>(batch.size()));
    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void QueryService::ProcessBatch(std::vector<Pending> batch) {
  const auto now = std::chrono::steady_clock::now();

  // Every batch member ends up in `resolutions` with exactly one terminal
  // Answer; promises are set only after the whole batch is accounted, so a
  // client whose future has resolved always finds itself in the counters.
  std::vector<std::pair<size_t, Answer>> resolutions;
  std::vector<char> live(batch.size(), 1);
  std::vector<int> retries(batch.size(), 0);
  int64_t timed_out = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t failed = 0;
  int64_t retried = 0;
  int64_t retries_exhausted = 0;
  auto resolve = [&](size_t i, Answer answer) {
    live[i] = 0;
    resolutions.emplace_back(i, std::move(answer));
  };

  // Pre-evaluation admission: queries already cancelled, past their
  // deadline, or stale (aged out in the queue under overload) resolve
  // without costing an evaluation.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].cancel != nullptr && batch[i].cancel->cancelled()) {
      ++cancelled;
      resolve(i, Status::Cancelled("cancelled before evaluation"));
    } else if (batch[i].deadline.expired()) {
      ++timed_out;
      resolve(i, Status::DeadlineExceeded("deadline expired in queue"));
    } else if (options_.max_queue_age.count() > 0 &&
               now - batch[i].enqueued > options_.max_queue_age) {
      ++shed;
      resolve(i, Status::ResourceExhausted("query aged out in queue"));
    }
  }

  // Compile each member through its serving partition's cache -- the role's
  // catalog entry for role-scoped queries ((role, query)-keyed rewriting),
  // the service-level cache otherwise -- and group batch entries by compiled
  // MFA so duplicate queries (same normalized text, same role) are evaluated
  // once. Two roles never share an MFA object, so coalescing cannot cross
  // roles. The shared_ptrs keep evicted entries alive through the pass.
  std::vector<std::shared_ptr<const automata::Mfa>> mfas;
  std::vector<std::vector<size_t>> waiters;  // per MFA: batch indices
  // Per MFA slot: the role partition it compiled through (null = service).
  std::vector<std::shared_ptr<policy::RoleCatalog::Entry>> slot_entry;
  std::unordered_map<const automata::Mfa*, size_t> slot_of;
  int64_t coalesced = 0;
  int64_t role_denied_empty = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!live[i]) continue;
    std::shared_ptr<policy::RoleCatalog::Entry> entry;
    if (batch[i].role != policy::kNoRole) {
      auto acquired = options_.catalog->Acquire(batch[i].role);
      if (!acquired.ok()) {
        ++failed;
        resolve(i, acquired.status());
        continue;
      }
      entry = std::move(acquired.value());
      if (entry->root_hidden()) {
        // The role sees nothing. Still a parse boundary: garbage stays an
        // error; a well-formed query answers the empty node set (the view
        // is empty, not broken).
        auto normalized = rewrite::RewriteCache::NormalizeQuery(batch[i].text);
        if (!normalized.ok()) {
          ++failed;
          resolve(i, normalized.status());
        } else {
          ++role_denied_empty;
          resolve(i, std::vector<xml::NodeId>{});
        }
        continue;
      }
    }
    auto compiled = entry != nullptr ? entry->Compile(batch[i].text)
                                     : cache_.Get(batch[i].text);
    if (!compiled.ok()) {
      ++failed;
      resolve(i, compiled.status());
      continue;
    }
    std::shared_ptr<const automata::Mfa> mfa = std::move(compiled.value().mfa);
    auto [it, inserted] = slot_of.emplace(mfa.get(), mfas.size());
    if (inserted) {
      // Register the query's transition plane now -- in the partition that
      // compiled it, seeded with the cache's warm CSR mirror and pinning
      // the MFA to the entry: every evaluator this batch (or a later one)
      // creates for the MFA shares it.
      hype::TransitionPlaneStore& store =
          entry != nullptr ? entry->planes() : *plane_store_;
      store.For(mfa.get(), std::move(compiled.value().compiled), mfa);
      mfas.push_back(std::move(mfa));
      waiters.emplace_back();
      slot_entry.push_back(std::move(entry));
    } else {
      ++coalesced;
    }
    waiters[it->second].push_back(i);
  }

  // Partition the MFA slots by serving partition: one evaluation group per
  // role (plus one for service-level queries). Isolation is the point --
  // each group evaluates against its own plane universe, so a shared pass
  // never mixes two roles' interned state. Single-tenant batches collapse
  // to exactly one group, the pre-policy behavior.
  struct Group {
    std::shared_ptr<policy::RoleCatalog::Entry> entry;  // null = service
    std::vector<size_t> slots;
  };
  std::vector<Group> groups;
  for (size_t s = 0; s < mfas.size(); ++s) {
    policy::RoleCatalog::Entry* key = slot_entry[s].get();
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.entry.get() == key) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({slot_entry[s], {}});
      group = &groups.back();
    }
    group->slots.push_back(s);
  }

  // Min-deadline retry loop, per group: each round evaluates the group's
  // still-live members under the EARLIEST of their deadlines (plus a poll
  // over their cancel tokens). A kDeadlineExceeded abort resolves every
  // expired member -- at least the min-deadline holder, so each retry
  // strictly shrinks the set and the loop terminates -- and re-runs the
  // remainder, giving per-query deadline isolation inside one coalesced
  // batch. A kCancelled abort likewise resolves the cancelled members and
  // retries. Any other failure (injected shard fault -> kUnavailable) is
  // terminal for the whole round's group.
  int64_t role_groups = 0;
  for (Group& group : groups) {
  hype::TransitionPlaneStore* store =
      group.entry != nullptr ? &group.entry->planes() : plane_store_.get();
  if (group.entry != nullptr) ++role_groups;
  int backoff_round = 0;
  for (;;) {
    if (backoff_round > 0) {
      // A retry round: every survivor of the aborted pass burns one unit of
      // its SubmitOptions::max_retries budget (kUnavailable past it), and
      // the group backs off exponentially before re-evaluating -- a stream
      // of expiring/cancelling siblings can delay a query but can no longer
      // pin it in the dispatcher unboundedly.
      for (size_t s : group.slots) {
        for (size_t i : waiters[s]) {
          if (!live[i]) continue;
          ++retries[i];
          if (retries[i] > batch[i].max_retries) {
            ++failed;
            ++retries_exhausted;
            resolve(i, Status::Unavailable(
                           "retry budget exhausted after " +
                           std::to_string(batch[i].max_retries) +
                           " re-evaluation rounds; safe to resubmit"));
          } else {
            ++retried;
          }
        }
      }
      const int shift = backoff_round < 6 ? backoff_round - 1 : 5;
      std::this_thread::sleep_for(std::chrono::microseconds(50 << shift));
    }
    std::vector<size_t> slots;  // group MFA slots with >= 1 live waiter
    for (size_t s : group.slots) {
      for (size_t i : waiters[s]) {
        if (live[i]) {
          slots.push_back(s);
          break;
        }
      }
    }
    if (slots.empty()) break;

    Deadline min_deadline;  // Never
    bool any_token = false;
    for (size_t s : slots) {
      for (size_t i : waiters[s]) {
        if (!live[i]) continue;
        if (batch[i].deadline.has_deadline() &&
            (!min_deadline.has_deadline() ||
             batch[i].deadline.when() < min_deadline.when())) {
          min_deadline = batch[i].deadline;
        }
        any_token |= batch[i].cancel != nullptr;
      }
    }
    EvalControl control;
    control.deadline = min_deadline;
    control.checkpoint_interval = options_.checkpoint_interval;
    if (any_token) {
      control.extra_poll = [&]() {
        for (size_t s : slots) {
          for (size_t i : waiters[s]) {
            if (live[i] && batch[i].cancel != nullptr &&
                batch[i].cancel->cancelled()) {
              return StatusCode::kCancelled;
            }
          }
        }
        return StatusCode::kOk;
      };
    }

    // One evaluator per round, over the live MFAs in slot order; the plane
    // store keeps the next round (and batch) warm, not the evaluator.
    std::vector<const automata::Mfa*> round_mfas;
    round_mfas.reserve(slots.size());
    for (size_t s : slots) round_mfas.push_back(mfas[s].get());
    ShardedBatchEvaluator eval(*epoch_.tree, std::move(round_mfas),
                               {.index = options_.index,
                                .plane = epoch_.plane.get(),
                                .pool = &pool_,
                                .plane_store = store});
    std::vector<std::vector<xml::NodeId>> answers =
        eval.EvalAll(epoch_.tree->root(), control);
    const Status& st = eval.last_status();

    if (st.ok()) {
      for (size_t k = 0; k < slots.size(); ++k) {
        std::vector<size_t> targets;
        for (size_t i : waiters[slots[k]]) {
          if (live[i]) targets.push_back(i);
        }
        for (size_t t = 0; t < targets.size(); ++t) {
          if (t + 1 == targets.size()) {
            resolve(targets[t], std::move(answers[k]));
          } else {
            resolve(targets[t], answers[k]);
          }
        }
      }
      break;
    }

    bool progressed = false;
    if (st.code() == StatusCode::kDeadlineExceeded) {
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (live[i] && batch[i].deadline.expired()) {
            ++timed_out;
            resolve(i, Status::DeadlineExceeded("deadline expired during "
                                                "evaluation"));
            progressed = true;
          }
        }
      }
    } else if (st.code() == StatusCode::kCancelled) {
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (live[i] && batch[i].cancel != nullptr &&
              batch[i].cancel->cancelled()) {
            ++cancelled;
            resolve(i, Status::Cancelled("cancelled during evaluation"));
            progressed = true;
          }
        }
      }
    }
    if (progressed) ++backoff_round;
    if (!progressed) {
      // Transient shard failure (or, defensively, an abort whose trigger we
      // can no longer attribute): terminal for every remaining member. The
      // status code is one of the documented terminal set; clients retry.
      for (size_t s : slots) {
        for (size_t i : waiters[s]) {
          if (!live[i]) continue;
          switch (st.code()) {
            case StatusCode::kResourceExhausted: ++shed; break;
            case StatusCode::kDeadlineExceeded: ++timed_out; break;
            case StatusCode::kCancelled: ++cancelled; break;
            default: ++failed; break;
          }
          resolve(i, Status(st.code(), st.message()));
        }
      }
      break;
    }
  }
  }  // per-group evaluation

  // Account the batch BEFORE resolving any promise: a client whose future
  // has resolved always finds itself in the counters.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.queries_answered += static_cast<int64_t>(batch.size());
    stats_.queries_failed += failed;
    stats_.queries_timed_out += timed_out;
    stats_.queries_shed += shed;
    stats_.queries_cancelled += cancelled;
    stats_.coalesced_duplicates += coalesced;
    stats_.role_groups += role_groups;
    stats_.role_denied_empty += role_denied_empty;
    stats_.queries_retried += retried;
    stats_.retries_exhausted += retries_exhausted;
    stats_.cache = cache_.stats();
  }

  for (auto& [i, answer] : resolutions) {
    batch[i].promise.set_value(std::move(answer));
  }
}

}  // namespace smoqe::exec

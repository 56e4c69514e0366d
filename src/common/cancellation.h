// Cooperative cancellation and deadlines for the evaluation drivers.
//
// The unit of work in SMOQE is a document traversal that can visit millions
// of nodes; a pathological rewriting (the exponential blowup the paper warns
// about) can pin a shard worker for seconds. Every driver therefore accepts
// an EvalControl and polls an EvalGate at a bounded node interval:
//
//   CancelToken   shared first-cancel-wins flag (caller or sibling shard
//                 trips it; relaxed atomics, safe to poll from any thread)
//   Deadline      absolute steady_clock point; Never() by default
//   EvalControl   the caller-facing bundle: token + deadline + checkpoint
//                 interval + an optional extra poll hook (the query service
//                 uses it to observe per-member tokens inside one batch)
//   EvalGate      per-thread polling state. Poll() is a plain decrement on
//                 the hot path; every `checkpoint_interval` nodes it reads
//                 the clock/token once (Refresh). Once tripped the gate
//                 latches a terminal Status and cancels the shared token so
//                 sibling gates observe the failure at their next refresh.
//
// Aborting a traversal through the gate leaves engines reusable: the driver
// abandons its explicit stack and the next PrepareRoot resets all per-run
// state.

#ifndef SMOQE_COMMON_CANCELLATION_H_
#define SMOQE_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace smoqe {

/// Shared cancellation flag. First Cancel() wins; later calls are no-ops.
/// All loads are relaxed: cancellation is advisory and drivers only need to
/// observe it eventually (within one checkpoint interval).
class CancelToken {
 public:
  CancelToken() : reason_(0) {}

  /// Requests cancellation with `code` (kCancelled, kDeadlineExceeded, ...).
  /// Returns true if this call was the first to cancel.
  bool Cancel(StatusCode code = StatusCode::kCancelled) {
    int expected = 0;
    return reason_.compare_exchange_strong(expected, static_cast<int>(code),
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed);
  }

  bool cancelled() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  /// kOk while live; the cancelling code once tripped.
  StatusCode reason() const {
    return static_cast<StatusCode>(reason_.load(std::memory_order_relaxed));
  }

  /// Re-arms a token for reuse across rounds (test/bench convenience; do not
  /// call while an evaluation holding this token is in flight).
  void Reset() { reason_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int> reason_;
};

/// An absolute deadline on the steady clock. Default-constructed = never.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : when_(Clock::time_point::max()) {}
  explicit Deadline(Clock::time_point when) : when_(when) {}

  static Deadline Never() { return Deadline(); }
  static Deadline After(std::chrono::microseconds d) {
    return Deadline(Clock::now() + d);
  }

  bool has_deadline() const { return when_ != Clock::time_point::max(); }
  bool expired() const { return has_deadline() && Clock::now() >= when_; }
  Clock::time_point when() const { return when_; }

 private:
  Clock::time_point when_;
};

/// Caller-facing control bundle passed into evaluation entry points.
/// Default-constructed EvalControl never cancels and costs one branch per
/// checkpoint interval.
struct EvalControl {
  /// Shared cancellation flag, or nullptr. Drivers that fail also Cancel()
  /// this token so concurrent siblings (shard workers) stop early.
  CancelToken* token = nullptr;

  Deadline deadline;  // Never() by default

  /// Nodes visited between gate refreshes. This bounds cancellation latency:
  /// a traversal observes cancellation/deadline after at most this many
  /// additional node entries (documented in BUILDING.md, asserted in test).
  int32_t checkpoint_interval = 1024;

  /// Optional extra poll, called at each refresh. Returning anything other
  /// than kOk aborts with that code. The query service uses this to watch
  /// per-member cancel tokens while evaluating a coalesced batch.
  std::function<StatusCode()> extra_poll;

  bool enabled() const {
    return token != nullptr || deadline.has_deadline() ||
           static_cast<bool>(extra_poll);
  }
};

/// Per-thread polling state for one traversal. Not thread-safe; each worker
/// builds its own gate over the shared EvalControl.
class EvalGate {
 public:
  EvalGate() : control_(nullptr) { Disarm(); }
  explicit EvalGate(const EvalControl* control) { Arm(control); }

  /// (Re)binds the gate. Passing nullptr (or a control with nothing to
  /// watch) disarms it: Poll() stays true forever on a countdown that never
  /// refreshes.
  void Arm(const EvalControl* control) {
    control_ = (control != nullptr && control->enabled()) ? control : nullptr;
    status_ = Status::OK();
    if (control_ == nullptr) {
      Disarm();
    } else {
      interval_ = control_->checkpoint_interval > 0
                      ? control_->checkpoint_interval
                      : 1;
      countdown_ = interval_;
    }
  }

  /// Hot-path check, called once per node entered. Returns false once the
  /// traversal must abort; `status()` then holds the terminal reason.
  bool Poll() {
    if (--countdown_ > 0) return true;
    return Refresh();
  }

  /// True once the gate has latched a failure (Poll() returned false or
  /// Trip() was called).
  bool tripped() const { return !status_.ok(); }

  /// kOk while live; the abort reason once tripped.
  const Status& status() const { return status_; }

  /// Latches `status` (first trip wins) and cancels the shared token so
  /// sibling gates abort too. Used by fault-injection sites and by drivers
  /// that fail outside the polling loop.
  void Trip(Status status) {
    if (tripped() || status.ok()) return;
    status_ = std::move(status);
    countdown_ = 0;  // make the next Poll() observe the latch immediately
    if (control_ != nullptr && control_->token != nullptr) {
      control_->token->Cancel(status_.code());
    }
  }

  /// The full (non-countdown) check: token, deadline, extra hook. Public so
  /// coarse-grained loops (per shard unit, per delta region) can force a
  /// real check regardless of the countdown.
  bool Refresh() {
    if (tripped()) return false;
    if (control_ == nullptr) {
      Disarm();
      return true;
    }
    if (control_->token != nullptr && control_->token->cancelled()) {
      status_ = MakeStatus(control_->token->reason());
      return false;
    }
    if (control_->deadline.expired()) {
      Trip(Status::DeadlineExceeded("evaluation deadline expired"));
      return false;
    }
    if (control_->extra_poll) {
      StatusCode code = control_->extra_poll();
      if (code != StatusCode::kOk) {
        Trip(MakeStatus(code));
        return false;
      }
    }
    countdown_ = interval_;
    return true;
  }

 private:
  void Disarm() {
    // ~53 years of node visits at 1ns/node before the countdown hits zero;
    // a disarmed gate still self-heals through Refresh() if it ever does.
    interval_ = INT64_MAX;
    countdown_ = INT64_MAX;
  }

  static Status MakeStatus(StatusCode code) {
    switch (code) {
      case StatusCode::kDeadlineExceeded:
        return Status::DeadlineExceeded("evaluation deadline expired");
      case StatusCode::kResourceExhausted:
        return Status::ResourceExhausted("evaluation shed by admission control");
      case StatusCode::kUnavailable:
        return Status::Unavailable("evaluation aborted: transient failure");
      default:
        return Status::Cancelled("evaluation cancelled");
    }
  }

  const EvalControl* control_;
  int64_t interval_;
  int64_t countdown_;
  Status status_;
};

}  // namespace smoqe

#endif  // SMOQE_COMMON_CANCELLATION_H_

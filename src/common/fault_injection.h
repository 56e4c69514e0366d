// Deterministic, site-registered fault injection for the chaos suite.
//
// A FaultInjector is a process-global registry of named fault sites compiled
// into cold paths of the engine (shard-unit dispatch, epoch publish, plane
// interning, service admission, dispatcher wakeup). Each site can be armed
// with a plan: fail 1-in-N hits with a transient error / simulated alloc
// failure, or sleep an injected delay. Decisions are a pure function of
// (seed, site, per-site hit counter), so a chaos round reproduces exactly
// from its logged seed regardless of thread interleaving *per site*.
//
// Cost model: sites are compiled in only when the build sets
// -DSMOQE_FAULT_INJECTION=ON (the default; see CMakeLists.txt). When
// compiled in but disarmed, a site is one relaxed atomic load. When compiled
// out, the macros expand to nothing.
//
// Usage at a site:
//
//   SMOQE_FAULT_RETURN_IF_INJECTED(FaultSite::kEpochApply);   // returns Status
//   SMOQE_FAULT_HIT(FaultSite::kShardUnit, [&](Status s) {    // custom sink
//     gate->Trip(std::move(s));
//   });
//
// Arming (tests only; arm before spawning threads, disarm after joining):
//
//   auto& fi = FaultInjector::Global();
//   fi.Arm(seed);
//   fi.SetPlan(FaultSite::kShardUnit,
//              {FaultKind::kTransientError, /*one_in=*/7});
//   ... run workload ...
//   fi.Disarm();

#ifndef SMOQE_COMMON_FAULT_INJECTION_H_
#define SMOQE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace smoqe {

enum class FaultSite : int {
  kShardUnit = 0,    // ShardedBatchEvaluator, before evaluating one unit
  kEpochApply,       // EpochPublisher::Apply, after replica build, pre-publish
  kPlaneIntern,      // TransitionPlane write path (delay only: exercises the
                     // shared_mutex under contention; errors here would poison
                     // the shared per-query plane)
  kServiceAdmit,     // QueryService::Submit admission decision
  kServiceDispatch,  // dispatcher thread, start of batch collection (delay:
                     // widens the spurious-wakeup window of the wait loop)
  kWalAppend,        // storage::WalWriter::Append, before the record write
                     // (torn-write capable: a prefix of the record persists)
  kWalFsync,         // storage::WalWriter::Sync, before the fsync
  kSnapshotWrite,    // snapshot temp-file write (torn-write capable)
  kSnapshotRename,   // snapshot/manifest atomic rename, before the rename
  kNumSites,
};

enum class FaultKind : int {
  kNone = 0,
  kTransientError,  // injects Status::Unavailable
  kAllocFailure,    // injects Status::ResourceExhausted (simulated bad_alloc
                    // at a boundary that must stay exception-free)
  kDelay,           // sleeps `delay`, then proceeds (kOk)
  kTornWrite,       // write sites only: persist a deterministic prefix of
                    // the pending write, then fail (simulated crash mid-write)
};

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  // Fire on hits where Mix(seed, site, hit#) % one_in == 0; 1 = every hit.
  uint32_t one_in = 1;
  std::chrono::microseconds delay{0};
  // Deterministic window (used by kill-point tests): when window_count > 0
  // the site fires on exactly the hits in [window_first, window_first +
  // window_count), ignoring one_in.
  uint32_t window_first = 0;
  uint32_t window_count = 0;
};

class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Fast armed check for the macros; a single relaxed load.
  static bool armed() {
    return armed_flag_.load(std::memory_order_relaxed);
  }

  /// Enables injection with a deterministic seed and clears all plans and
  /// counters. Call from a quiescent process (no evaluations in flight).
  void Arm(uint64_t seed);

  /// Disables injection; plans stay readable for post-round assertions.
  void Disarm();

  void SetPlan(FaultSite site, FaultPlan plan);

  /// Called by a compiled-in site. Returns the injected Status (kOk when the
  /// site is unplanned or this hit does not fire). kDelay sleeps here;
  /// kTornWrite surfaces as a plain Unavailable (write sites use HitWrite).
  Status Hit(FaultSite site);

  /// Write-site variant: like Hit, but a firing kTornWrite plan sets
  /// *keep_prefix to a deterministic prefix length in [0, len) that the
  /// caller must persist before failing; every other outcome leaves
  /// *keep_prefix = 0.
  Status HitWrite(FaultSite site, size_t len, size_t* keep_prefix);

  /// Counters for test assertions: total traversals of the site / faults fired.
  int64_t hits(FaultSite site) const;
  int64_t fired(FaultSite site) const;

 private:
  FaultInjector() = default;

  struct Site {
    FaultPlan plan;  // written only while disarmed
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> fired{0};
  };

  static std::atomic<bool> armed_flag_;

  uint64_t seed_ = 0;
  Site sites_[static_cast<int>(FaultSite::kNumSites)];
};

/// Armed-checked wrapper for write sites (the storage layer calls this
/// instead of a macro because it needs the prefix length as a value). When
/// injection is compiled out or disarmed this is a single branch.
inline Status FaultHitWrite(FaultSite site, size_t len, size_t* keep_prefix) {
  *keep_prefix = 0;
#ifdef SMOQE_FAULT_INJECTION
  if (FaultInjector::armed()) {
    return FaultInjector::Global().HitWrite(site, len, keep_prefix);
  }
#else
  (void)site;
  (void)len;
#endif
  return Status::OK();
}

}  // namespace smoqe

#ifdef SMOQE_FAULT_INJECTION

/// Runs `sink` (any callable taking Status&&) if this hit injects a fault.
#define SMOQE_FAULT_HIT(site, sink)                                     \
  do {                                                                  \
    if (::smoqe::FaultInjector::armed()) {                              \
      ::smoqe::Status _smoqe_fault =                                    \
          ::smoqe::FaultInjector::Global().Hit(site);                   \
      if (!_smoqe_fault.ok()) sink(std::move(_smoqe_fault));            \
    }                                                                   \
  } while (0)

/// Early-returns the injected Status from a Status-returning function.
#define SMOQE_FAULT_RETURN_IF_INJECTED(site)                            \
  do {                                                                  \
    if (::smoqe::FaultInjector::armed()) {                              \
      ::smoqe::Status _smoqe_fault =                                    \
          ::smoqe::FaultInjector::Global().Hit(site);                   \
      if (!_smoqe_fault.ok()) return _smoqe_fault;                      \
    }                                                                   \
  } while (0)

/// Delay-only site: injected delays apply, injected error Statuses are
/// dropped (used where a failure cannot be surfaced without poisoning shared
/// state, e.g. the transition plane's interning path).
#define SMOQE_FAULT_DELAY_POINT(site)                                   \
  do {                                                                  \
    if (::smoqe::FaultInjector::armed()) {                              \
      (void)::smoqe::FaultInjector::Global().Hit(site);                 \
    }                                                                   \
  } while (0)

#else  // !SMOQE_FAULT_INJECTION

#define SMOQE_FAULT_HIT(site, sink) \
  do {                              \
  } while (0)
#define SMOQE_FAULT_RETURN_IF_INJECTED(site) \
  do {                                       \
  } while (0)
#define SMOQE_FAULT_DELAY_POINT(site) \
  do {                                \
  } while (0)

#endif  // SMOQE_FAULT_INJECTION

#endif  // SMOQE_COMMON_FAULT_INJECTION_H_

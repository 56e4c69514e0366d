#include "common/fault_injection.h"

#include <thread>

namespace smoqe {

std::atomic<bool> FaultInjector::armed_flag_{false};

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(uint64_t seed) {
  seed_ = seed;
  for (Site& s : sites_) {
    s.plan = FaultPlan{};
    s.hits.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
  armed_flag_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_flag_.store(false, std::memory_order_release);
}

void FaultInjector::SetPlan(FaultSite site, FaultPlan plan) {
  if (plan.one_in == 0) plan.one_in = 1;
  sites_[static_cast<int>(site)].plan = plan;
}

namespace {
// splitmix64: decisions depend only on (seed, site, hit#), never on timing.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Status FaultInjector::Hit(FaultSite site) {
  size_t unused = 0;
  return HitWrite(site, 0, &unused);
}

Status FaultInjector::HitWrite(FaultSite site, size_t len,
                               size_t* keep_prefix) {
  *keep_prefix = 0;
  Site& s = sites_[static_cast<int>(site)];
  if (s.plan.kind == FaultKind::kNone) return Status::OK();
  uint64_t n = s.hits.fetch_add(1, std::memory_order_relaxed);
  uint64_t roll =
      Mix(seed_ ^ Mix(static_cast<uint64_t>(site) + 1) ^ Mix(n + 0x5151ULL));
  if (s.plan.window_count > 0) {
    // Deterministic window (kill-point tests): fire on exactly the hits
    // in [window_first, window_first + window_count).
    if (n < s.plan.window_first ||
        n >= static_cast<uint64_t>(s.plan.window_first) + s.plan.window_count) {
      return Status::OK();
    }
  } else if (roll % s.plan.one_in != 0) {
    return Status::OK();
  }
  s.fired.fetch_add(1, std::memory_order_relaxed);
  switch (s.plan.kind) {
    case FaultKind::kTransientError:
      return Status::Unavailable("injected transient fault");
    case FaultKind::kAllocFailure:
      return Status::ResourceExhausted("injected allocation failure");
    case FaultKind::kDelay:
      std::this_thread::sleep_for(s.plan.delay);
      return Status::OK();
    case FaultKind::kTornWrite:
      // The prefix length is a pure function of (seed, site, hit#) like the
      // firing decision, so a chaos round's torn writes replay exactly.
      if (len > 0) *keep_prefix = static_cast<size_t>(Mix(roll) % len);
      return Status::Unavailable("injected torn write");
    case FaultKind::kNone:
      break;
  }
  return Status::OK();
}

int64_t FaultInjector::hits(FaultSite site) const {
  return static_cast<int64_t>(
      sites_[static_cast<int>(site)].hits.load(std::memory_order_relaxed));
}

int64_t FaultInjector::fired(FaultSite site) const {
  return static_cast<int64_t>(
      sites_[static_cast<int>(site)].fired.load(std::memory_order_relaxed));
}

}  // namespace smoqe

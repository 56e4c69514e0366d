#include "policy/role_catalog.h"

#include <string>
#include <utility>

namespace smoqe::policy {

namespace {

// Compiled queries a role keeps hot: its RewriteCache's capacity and its
// plane store's soft cap on retained planes. Every rewrite miss makes a new
// MFA and so a new plane, so an uncapped store would grow with every
// distinct text the role ever served.
constexpr size_t kRoleQueryCapacity = 256;

}  // namespace

RoleCatalog::Entry::Entry(CompiledRole compiled, const xml::Tree& tree,
                          const hype::SubtreeLabelIndex* index)
    // Members initialize in declaration order, so compiled_ is live before
    // the caches bind to its view. A root-hidden entry has a null view; its
    // cache is never consulted (Compile's precondition).
    : compiled_(std::move(compiled)),
      cache_(compiled_.view.get(),
             rewrite::RewriteCacheOptions{kRoleQueryCapacity}),
      planes_(tree, index,
              hype::TransitionPlaneStore::Options{kRoleQueryCapacity}) {}

StatusOr<rewrite::CompiledQuery> RoleCatalog::Entry::Compile(
    std::string_view query_text) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.Get(query_text);
}

rewrite::RewriteCacheStats RoleCatalog::Entry::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.stats();
}

RoleCatalog::RoleCatalog(const Policy& policy, const xml::Tree& tree,
                         const hype::SubtreeLabelIndex* index,
                         RoleCatalogOptions options)
    : policy_(policy), tree_(tree), index_(index), options_(options) {}

StatusOr<std::shared_ptr<RoleCatalog::Entry>> RoleCatalog::Acquire(
    RoleId role) {
  // Cold compiles run under the catalog lock: role compilation is a
  // milliseconds-scale DTD pass, and serializing it keeps "compile each role
  // exactly once" trivially true under concurrent first touches.
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Entry> entry;
  auto it = entries_.find(role);
  if (it != entries_.end()) {
    ++stats_.hits;
    entry = it->second;
  } else {
    SMOQE_ASSIGN_OR_RETURN(CompiledRole compiled, CompileRole(policy_, role));
    entry.reset(new Entry(std::move(compiled), tree_, index_));
    ++stats_.compiles;
    entries_[role] = entry;
  }
  entry->last_used_ = ++clock_;

  // Soft-evict beyond capacity: coldest partitions nobody references (map
  // ref only; in-use entries are never dropped, so the cap bounds retained
  // memory, not correctness -- residency can exceed the cap while clients
  // pin entries, and converges back on any later Acquire). Same discipline
  // as TransitionPlaneStore.
  while (options_.role_capacity > 0 &&
         entries_.size() > options_.role_capacity) {
    auto victim = entries_.end();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (jt->first == role || jt->second.use_count() != 1) continue;
      if (victim == entries_.end() ||
          jt->second->last_used_ < victim->second->last_used_) {
        victim = jt;
      }
    }
    if (victim == entries_.end()) break;  // everything is in use
    entries_.erase(victim);
    ++stats_.planes_evicted;
  }
  return entry;
}

StatusOr<std::shared_ptr<RoleCatalog::Entry>> RoleCatalog::Acquire(
    std::string_view role_name) {
  RoleId role = policy_.FindRole(role_name);
  if (role == kNoRole) {
    return Status::InvalidArgument("unknown role '" + std::string(role_name) +
                                   "'");
  }
  return Acquire(role);
}

RoleCatalogStats RoleCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RoleCatalogStats out = stats_;
  out.resident = static_cast<int64_t>(entries_.size());
  return out;
}

hype::PlaneStoreStats RoleCatalog::plane_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  hype::PlaneStoreStats out;
  for (const auto& [role, entry] : entries_) {
    hype::PlaneStoreStats s = entry->planes_.stats();
    out.planes += s.planes;
    out.evictions += s.evictions;
    out.configs_interned += s.configs_interned;
    out.approx_bytes += s.approx_bytes;
  }
  return out;
}

}  // namespace smoqe::policy

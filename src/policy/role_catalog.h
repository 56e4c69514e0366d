// RoleCatalog: the multi-tenant serving registry of compiled roles.
//
// One catalog binds a Policy to one served document and hands out per-role
// serving PARTITIONS. A partition owns everything query execution derives
// from the role, so thousands of roles share one process without sharing any
// compiled state:
//
//  * the compiled security view (role_compiler.h), built once per role;
//  * a role-private rewrite::RewriteCache in view mode -- the (role, query)
//    keyed rewriting the tentpole asks for: the same query text submitted
//    under two roles compiles into two different source MFAs, and neither
//    role can ever be handed the other's automaton;
//  * a role-private hype::TransitionPlaneStore -- the interning universes of
//    a role's queries are pinned to its partition, so concurrent roles never
//    cross-contaminate configuration stores (and evicting a cold role frees
//    ALL of its compiled evaluation state at once).
//
// Acquire() compiles on first use and LRU-touches on every call. Beyond
// `role_capacity` resident entries, the least recently used entries nobody
// references are dropped (counted in stats().planes_evicted -- the gated
// counter). Entries are handed out as shared_ptrs: a batch in flight holding
// one keeps a just-evicted role's planes alive until it ends, the same
// discipline TransitionPlaneStore applies to individual planes.
//
// Thread-safety: the catalog itself is thread-safe. Entry::Compile locks the
// entry's private mutex (RewriteCache is not thread-safe); Entry::planes()
// is safe to share. exec::QueryService drives everything from its single
// dispatcher thread, but tests and benches hit catalogs from many threads.

#ifndef SMOQE_POLICY_ROLE_CATALOG_H_
#define SMOQE_POLICY_ROLE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "hype/index.h"
#include "hype/transition_plane.h"
#include "policy/policy.h"
#include "policy/role_compiler.h"
#include "rewrite/rewrite_cache.h"
#include "xml/tree.h"

namespace smoqe::policy {

struct RoleCatalogOptions {
  /// Soft cap on resident role partitions; 0 = unbounded. In-use entries
  /// are never dropped.
  size_t role_capacity = 0;
};

struct RoleCatalogStats {
  int64_t compiles = 0;        // cold Acquires (role + partition built)
  int64_t hits = 0;            // warm Acquires
  int64_t planes_evicted = 0;  // cold-role partitions dropped by the LRU cap
  int64_t resident = 0;        // partitions currently held by the catalog
};

class RoleCatalog {
 public:
  /// One role's serving partition. Create only via RoleCatalog::Acquire.
  class Entry {
   public:
    RoleId role() const { return compiled_.role; }
    bool root_hidden() const { return compiled_.root_hidden; }
    /// Null iff root_hidden().
    const view::ViewDef* view() const { return compiled_.view.get(); }
    const CompiledRole& compiled() const { return compiled_; }

    /// The (role, query)-keyed rewriting, through the role's private cache.
    /// Thread-safe (internally locked). Must not be called on a
    /// root-hidden entry.
    StatusOr<rewrite::CompiledQuery> Compile(std::string_view query_text);

    /// The role's private interning universe registry. Thread-safe.
    hype::TransitionPlaneStore& planes() { return planes_; }

    rewrite::RewriteCacheStats cache_stats() const;

   private:
    friend class RoleCatalog;
    Entry(CompiledRole compiled, const xml::Tree& tree,
          const hype::SubtreeLabelIndex* index);

    CompiledRole compiled_;
    mutable std::mutex cache_mu_;
    rewrite::RewriteCache cache_;
    hype::TransitionPlaneStore planes_;
    int64_t last_used_ = 0;
  };

  /// `policy`, `tree` and `index` (may be null) must outlive the catalog
  /// and every Entry it hands out.
  RoleCatalog(const Policy& policy, const xml::Tree& tree,
              const hype::SubtreeLabelIndex* index,
              RoleCatalogOptions options = {});

  /// The role's partition, compiled on first use. Compile failures are
  /// returned (and not cached: a broken role stays cold).
  StatusOr<std::shared_ptr<Entry>> Acquire(RoleId role);

  /// Name-based convenience for front ends that carry role names.
  StatusOr<std::shared_ptr<Entry>> Acquire(std::string_view role_name);

  const Policy& policy() const { return policy_; }
  RoleCatalogStats stats() const;

  /// Aggregate transition-plane footprint across resident partitions
  /// (planes, configurations, approximate bytes) -- the bench's
  /// memory-vs-role-count axis.
  hype::PlaneStoreStats plane_stats() const;

 private:
  const Policy& policy_;
  const xml::Tree& tree_;
  const hype::SubtreeLabelIndex* index_;
  RoleCatalogOptions options_;

  mutable std::mutex mu_;
  int64_t clock_ = 0;
  RoleCatalogStats stats_;
  std::unordered_map<RoleId, std::shared_ptr<Entry>> entries_;
};

}  // namespace smoqe::policy

#endif  // SMOQE_POLICY_ROLE_CATALOG_H_

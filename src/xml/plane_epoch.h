// PlaneEpoch / EpochPublisher: copy-on-write snapshots of a mutating
// document and its columnar plane.
//
// DESIGN NOTE (one writer, many wait-free readers)
// ------------------------------------------------
// Every evaluator in SMOQE reads a (Tree, DocPlane) pair and assumes both
// are frozen. The publisher keeps that assumption true under writes by
// never mutating what a reader can see: the current epoch's tree and plane
// are published behind shared_ptr<const>, a reader pins them with
// Snapshot() (two refcount bumps under a mutex -- no copying), and a write
// builds the NEXT epoch on a PRIVATE replica before an O(1) pointer swap
// publishes it. Readers mid-pass simply finish on the epoch they pinned;
// the epoch (and the arena behind it) stays alive until the last snapshot
// drops.
//
// Apply(delta) admits a TreeDelta only when delta.from_version() matches
// the current version (the Pacemaker CIB patch discipline -- see
// tree_delta.h), then:
//
//  * acquires a writable replica at the current version -- preferably by
//    RECYCLING a retired epoch's tree whose last snapshot has dropped
//    (use_count()==1), replaying the bounded delta log to roll it forward.
//    Replay is exact, not approximate: arena ids are deterministic, so a
//    replayed replica is id-for-id the tree readers saw. Only when no
//    retired replica qualifies does the publisher pay a full clone;
//  * patches the previous epoch's plane through DocPlane::Maintainer in
//    lockstep with the tree edits (bit-identical to a from-scratch Build --
//    the bench_mutation gate), falling back to a full rebuild when the
//    delta touches a large fraction of the document;
//  * publishes {tree, plane, version+1} and retires the previous replica
//    into the recycling pool.
//
// Apply is single-writer: one thread (or an external serialization) issues
// writes; Snapshot() is safe from any thread at any time. A delta that
// fails validation corrupts only the private replica, which is discarded --
// readers and the published epoch never observe a partial write.

#ifndef SMOQE_XML_PLANE_EPOCH_H_
#define SMOQE_XML_PLANE_EPOCH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace smoqe::xml {

/// One immutable (tree, plane, version) snapshot. Copy freely; the pointed
/// data outlives every copy.
struct PlaneEpoch {
  std::shared_ptr<const Tree> tree;
  std::shared_ptr<const DocPlane> plane;
  uint64_t version = 0;
};

class EpochPublisher {
 public:
  /// Takes ownership of the initial document (version 0) and builds its
  /// plane.
  explicit EpochPublisher(Tree initial);

  /// Resumes publishing at `version`: takes ownership of the tree AND its
  /// plane. DurableEpochStore::Open builds the plane once from the tree it
  /// replayed, and a caller resuming from a recovered PlaneEpoch already
  /// holds one; taking it here keeps either from building it twice.
  /// `plane` must mirror `tree` exactly.
  EpochPublisher(Tree initial, DocPlane plane, uint64_t version);

  /// Pins the current epoch. Wait-free for practical purposes (a mutex'd
  /// pair of refcount bumps); never blocks on a concurrent Apply's heavy
  /// work.
  PlaneEpoch Snapshot() const;

  uint64_t version() const;

  /// Applies one delta (admitted iff delta.from_version() == version())
  /// and publishes the next epoch. Single-writer; see the design note.
  Status Apply(const TreeDelta& delta);

  struct Stats {
    int64_t epochs_published = 0;
    int64_t replicas_recycled = 0;  // writable tree obtained by log replay
    int64_t replicas_cloned = 0;    // ... by deep copy (pool exhausted)
    int64_t planes_patched = 0;     // plane derived via DocPlane::Maintainer
    int64_t planes_rebuilt = 0;     // ... via full DocPlane::Build
  };
  Stats stats() const;

 private:
  struct Retired {
    std::shared_ptr<Tree> tree;
    uint64_t version = 0;
  };

  /// A writable tree equal to the current epoch's, by recycle or clone.
  std::shared_ptr<Tree> AcquireWritable(const PlaneEpoch& current,
                                        bool* recycled);

  static constexpr size_t kMaxPool = 4;  // retired replicas kept around
  static constexpr size_t kMaxLog = 16;  // deltas kept for replay

  mutable std::mutex mu_;
  PlaneEpoch epoch_;
  std::shared_ptr<Tree> live_;  // non-const alias of epoch_.tree
  std::vector<Retired> pool_;
  std::deque<TreeDelta> log_;  // contiguous from_versions, newest at back
  Stats stats_;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_PLANE_EPOCH_H_

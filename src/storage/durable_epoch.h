// Recovery and the durable epoch store: crash-safe publishing built from
// the snapshot store (snapshot.h) and the write-ahead delta log (wal.h).
//
// On-disk layout of a storage directory:
//
//   MANIFEST                      newest durable snapshot (atomic pointer)
//   snapshot-<version>.snap       checksummed (version, Tree); no plane
//   wal.log                       delta records from the oldest kept
//                                 snapshot's version onward
//   *.tmp                         in-flight writes a crash abandoned
//
// Recover(dir) = load the newest snapshot whose checksum verifies (fall
// back to an older one when the newest is corrupt), replay the WAL's valid
// prefix from that version, truncate any torn/corrupt tail instead of
// failing, and return the recovered epoch, whose plane is built once from
// the replayed tree. Fsck is the same walk without the repairs and without
// the plane -- what `smoqe_fsck` runs. DurableEpochStore wraps an
// EpochPublisher with the WAL-before-publish ordering (wal.h design note)
// and periodic snapshot compaction.

#ifndef SMOQE_STORAGE_DURABLE_EPOCH_H_
#define SMOQE_STORAGE_DURABLE_EPOCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/wal.h"
#include "xml/plane_epoch.h"
#include "xml/tree.h"

namespace smoqe::storage {

struct StorageOptions {
  /// WAL records between snapshot compactions; 0 = only the initial
  /// snapshot (the WAL then grows without bound).
  int snapshot_every = 64;

  /// Snapshots retained after compaction. At least 2, so recovery can fall
  /// back one snapshot when the newest is corrupt (the WAL is trimmed only
  /// up to the OLDEST kept snapshot's version, keeping the fallback
  /// replayable to the present).
  int snapshots_kept = 2;
};

/// What a recovery (or fsck) walk found.
struct RecoveryReport {
  uint64_t recovered_version = 0;
  uint64_t snapshot_version = 0;  // snapshot the replay started from
  int64_t records_replayed = 0;
  int64_t bytes_truncated = 0;    // torn/corrupt WAL tail dropped
  int64_t snapshots_skipped = 0;  // newer snapshots that failed to verify
};

/// Rebuilds the newest recoverable epoch from `dir`, repairing as it goes:
/// a torn/corrupt WAL tail is truncated (bytes_truncated), corrupt
/// snapshots are skipped (snapshots_skipped). Fails only when no snapshot
/// verifies at all.
StatusOr<xml::PlaneEpoch> Recover(const std::string& dir,
                                  RecoveryReport* report = nullptr);

/// Non-mutating verification of a storage directory (the smoqe_fsck
/// binary). `report` holds what a Recover would do; `notes` name each
/// problem found. ok means a Recover would succeed.
struct FsckReport {
  bool ok = false;
  RecoveryReport report;
  std::vector<std::string> notes;
};
FsckReport Fsck(const std::string& dir);

/// An EpochPublisher whose Apply is durable. Single writer (like the
/// publisher it wraps); Snapshot/version are safe from any thread.
///
/// Failure semantics: a WAL-level failure (append/fsync) wedges the store
/// -- the process-alive analogue of a crash; the disk is left exactly as
/// the failure left it and every later Apply refuses with
/// kFailedPrecondition until someone re-Opens from disk. A PUBLISH failure
/// with the WAL healthy instead rolls the just-appended record back
/// (TruncateLastRecord), keeping the no-record-for-unpublished-versions
/// invariant. A compaction failure is neither: the WAL still holds
/// everything, so the store keeps serving and retries at the next interval.
class DurableEpochStore {
 public:
  /// Opens `dir` (created if missing). A directory with durable state
  /// recovers it and `initial` is ignored; a fresh directory persists
  /// `initial` as snapshot version 0 before returning, so an acknowledged
  /// Open is always durable.
  static StatusOr<std::unique_ptr<DurableEpochStore>> Open(
      const std::string& dir, StorageOptions options, xml::Tree initial);

  xml::PlaneEpoch Snapshot() const { return publisher_->Snapshot(); }
  uint64_t version() const { return publisher_->version(); }
  const xml::EpochPublisher& publisher() const { return *publisher_; }

  /// Durable apply: WAL append + fsync, THEN publish (wal.h design note).
  /// kFailedPrecondition for stale deltas (nothing written) and for a
  /// wedged store; the injected-fault paths follow the class comment.
  Status Apply(const xml::TreeDelta& delta);

  struct Stats {
    int64_t wal_appends = 0;            // records durably appended
    int64_t wal_rollbacks = 0;          // publish failures rolled back
    int64_t snapshots_written = 0;      // compactions (incl. the initial)
    int64_t compactions_failed = 0;     // snapshot write failures survived
    int64_t wal_bytes_trimmed = 0;      // dropped by compaction trims
  };
  Stats stats() const;

  /// What Open's recovery found (all zeros for a fresh directory).
  const RecoveryReport& recovery_report() const { return recovery_; }

  const std::string& dir() const { return dir_; }

 private:
  DurableEpochStore(std::string dir, StorageOptions options)
      : dir_(std::move(dir)), options_(options) {}

  /// Writes a snapshot of the current epoch, prunes old snapshots, trims
  /// the WAL up to the oldest kept snapshot's version.
  Status Compact();

  std::string dir_;
  StorageOptions options_;
  std::unique_ptr<xml::EpochPublisher> publisher_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryReport recovery_;
  int deltas_since_snapshot_ = 0;
  bool wedged_ = false;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace smoqe::storage

#endif  // SMOQE_STORAGE_DURABLE_EPOCH_H_

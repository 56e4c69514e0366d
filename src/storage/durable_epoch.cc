#include "storage/durable_epoch.h"

#include <memory>
#include <utility>

#include "storage/fs.h"
#include "storage/snapshot.h"

namespace smoqe::storage {

namespace {

// The shared recovery walk. `repair` truncates the torn WAL tail and sweeps
// abandoned temp files (Recover); fsck runs it with repair=false and
// collects `notes` instead.
StatusOr<DecodedSnapshot> RecoverImpl(const std::string& dir, bool repair,
                                      RecoveryReport* report,
                                      std::vector<std::string>* notes) {
  auto note = [notes](std::string n) {
    if (notes != nullptr) notes->push_back(std::move(n));
  };

  auto manifest = ReadManifest(dir);
  if (!manifest.ok()) {
    note("manifest: " + manifest.status().message());
  }

  auto snapshots = ListSnapshots(dir);
  if (!snapshots.ok()) return snapshots.status();
  if (manifest.ok() && !snapshots.value().empty() &&
      manifest.value().version != snapshots.value().front().first) {
    // Normal crash shape: the snapshot renamed but the manifest did not
    // follow (or an older manifest survived a corrupt newest snapshot).
    note("manifest points at version " +
         std::to_string(manifest.value().version) + ", newest snapshot is " +
         std::to_string(snapshots.value().front().first));
  }

  // Newest verifying snapshot wins; corrupt ones are skipped, not fatal.
  DecodedSnapshot snap;
  bool loaded = false;
  for (const auto& [version, file] : snapshots.value()) {
    auto decoded = ReadSnapshotFile(dir + "/" + file);
    if (decoded.ok()) {
      snap = std::move(decoded.value());
      loaded = true;
      break;
    }
    ++report->snapshots_skipped;
    note(file + ": " + decoded.status().message());
  }
  if (!loaded) {
    return Status::NotFound("no verifiable snapshot in " + dir);
  }
  report->snapshot_version = snap.version;

  const std::string wal_path = dir + "/" + kWalName;
  auto scan_or = ScanWal(wal_path);
  if (!scan_or.ok()) return scan_or.status();
  const WalScan& scan = scan_or.value();

  // Replay the valid prefix from the snapshot's version. The first record
  // that does not chain (version gap), decode, or apply marks the cut
  // point: everything from there is treated as the torn tail.
  uint64_t version = snap.version;
  uint64_t cut = scan.valid_end;
  std::string cut_reason = scan.tail_reason;
  for (const WalRecord& record : scan.records) {
    if (record.from_version < version) continue;  // already in the snapshot
    if (record.from_version > version) {
      cut = record.offset;
      cut_reason = "version gap at record offset " +
                   std::to_string(record.offset);
      break;
    }
    auto delta = xml::TreeDelta::Deserialize(record.payload);
    if (!delta.ok()) {
      cut = record.offset;
      cut_reason = "undecodable record: " + delta.status().message();
      break;
    }
    Status applied = delta.value().ApplyTo(&snap.tree);
    if (!applied.ok()) {
      cut = record.offset;
      cut_reason = "unappliable record: " + applied.message();
      break;
    }
    version = delta.value().to_version();
    ++report->records_replayed;
  }
  report->recovered_version = version;
  report->bytes_truncated = static_cast<int64_t>(scan.file_size - cut);
  if (report->bytes_truncated > 0) {
    note("wal tail truncated at offset " + std::to_string(cut) + " (" +
         std::to_string(report->bytes_truncated) + " bytes: " + cut_reason +
         ")");
    if (repair) {
      SMOQE_RETURN_IF_ERROR(TruncateWal(wal_path, cut));
    }
  }

  // Abandoned in-flight writes (crash between temp write and rename).
  auto names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        note("abandoned temp file: " + name);
        if (repair) (void)RemoveFile(dir + "/" + name);
      }
    }
  }

  snap.version = version;
  return snap;
}

}  // namespace

StatusOr<xml::PlaneEpoch> Recover(const std::string& dir,
                                  RecoveryReport* report) {
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport{};
  auto decoded = RecoverImpl(dir, /*repair=*/true, report, nullptr);
  if (!decoded.ok()) return decoded.status();
  // The plane is derived once, after replay. Build is the bit-identity
  // oracle, so recovery lands on exactly the plane the publisher served.
  xml::PlaneEpoch epoch;
  epoch.version = decoded.value().version;
  epoch.tree =
      std::make_shared<const xml::Tree>(std::move(decoded.value().tree));
  epoch.plane =
      std::make_shared<const xml::DocPlane>(xml::DocPlane::Build(*epoch.tree));
  return epoch;
}

FsckReport Fsck(const std::string& dir) {
  FsckReport fsck;
  auto decoded = RecoverImpl(dir, /*repair=*/false, &fsck.report, &fsck.notes);
  fsck.ok = decoded.ok();
  if (!decoded.ok()) {
    fsck.notes.push_back("unrecoverable: " + decoded.status().message());
  }
  return fsck;
}

StatusOr<std::unique_ptr<DurableEpochStore>> DurableEpochStore::Open(
    const std::string& dir, StorageOptions options, xml::Tree initial) {
  if (options.snapshots_kept < 2) options.snapshots_kept = 2;
  SMOQE_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<DurableEpochStore> store(
      new DurableEpochStore(dir, options));

  auto snapshots = ListSnapshots(dir);
  if (!snapshots.ok()) return snapshots.status();
  const bool fresh =
      snapshots.value().empty() && !FileExists(dir + "/" + kManifestName) &&
      !FileExists(dir + "/" + kWalName);

  if (fresh) {
    // Nothing durable yet: persist `initial` as version 0 BEFORE serving,
    // so an acknowledged Open can always be recovered.
    SMOQE_RETURN_IF_ERROR(WriteSnapshot(dir, initial, 0));
    store->stats_.snapshots_written = 1;
    store->publisher_ =
        std::make_unique<xml::EpochPublisher>(std::move(initial));
  } else {
    auto decoded =
        RecoverImpl(dir, /*repair=*/true, &store->recovery_, nullptr);
    if (!decoded.ok()) return decoded.status();
    // As in Recover: the plane is built once, from the replayed tree.
    xml::DocPlane plane = xml::DocPlane::Build(decoded.value().tree);
    store->publisher_ = std::make_unique<xml::EpochPublisher>(
        std::move(decoded.value().tree), std::move(plane),
        decoded.value().version);
  }

  // The WAL resumes at its validated end (recovery just truncated any torn
  // tail, so that is the file size).
  auto scan = ScanWal(dir + "/" + kWalName);
  if (!scan.ok()) return scan.status();
  auto wal = WalWriter::Open(dir + "/" + kWalName, scan.value().valid_end);
  if (!wal.ok()) return wal.status();
  store->wal_ = std::move(wal.value());
  return store;
}

Status DurableEpochStore::Apply(const xml::TreeDelta& delta) {
  if (wedged_) {
    return Status::FailedPrecondition(
        "durable store wedged by an earlier log failure; recover from disk");
  }
  // Stale deltas are rejected BEFORE anything touches the log: no durable
  // record may exist for a version that never published.
  const uint64_t current = publisher_->version();
  if (delta.from_version() != current) {
    return Status::FailedPrecondition(
        "delta from_version " + std::to_string(delta.from_version()) +
        " does not admit against durable epoch " + std::to_string(current));
  }

  // WAL first, fsync second, publish third (wal.h design note). A log
  // failure is a simulated crash: wedge, leaving the disk exactly as the
  // failure left it.
  Status s = wal_->Append(delta);
  if (!s.ok()) {
    wedged_ = true;
    return s;
  }
  s = wal_->Sync();
  if (!s.ok()) {
    wedged_ = true;
    return s;
  }
  s = publisher_->Apply(delta);
  if (!s.ok()) {
    // Publish failed with the process (and the log) healthy: roll the
    // record back so durable state never holds an unpublished version.
    Status rollback = wal_->TruncateLastRecord();
    if (!rollback.ok()) {
      wedged_ = true;
    } else {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.wal_rollbacks;
    }
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.wal_appends;
  }
  ++deltas_since_snapshot_;
  if (options_.snapshot_every > 0 &&
      deltas_since_snapshot_ >= options_.snapshot_every) {
    // Compaction failures are survivable (the WAL still holds everything);
    // Compact() recorded the failure and the next interval retries.
    (void)Compact();
  }
  return Status::OK();
}

Status DurableEpochStore::Compact() {
  const xml::PlaneEpoch epoch = publisher_->Snapshot();
  Status s = WriteSnapshot(dir_, *epoch.tree, epoch.version);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.compactions_failed;
    return s;
  }
  deltas_since_snapshot_ = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.snapshots_written;
  }

  // Prune snapshots beyond the retention count, then trim WAL records that
  // predate the OLDEST kept snapshot (the fallback still replays to the
  // present -- see StorageOptions::snapshots_kept).
  auto snapshots = ListSnapshots(dir_);
  if (!snapshots.ok()) return Status::OK();  // pruning is best-effort
  uint64_t oldest_kept = epoch.version;
  for (size_t i = 0; i < snapshots.value().size(); ++i) {
    if (i < static_cast<size_t>(options_.snapshots_kept)) {
      oldest_kept = snapshots.value()[i].first;
    } else {
      (void)RemoveFile(dir_ + "/" + snapshots.value()[i].second);
    }
  }

  const std::string wal_path = dir_ + "/" + kWalName;
  auto scan = ScanWal(wal_path);
  if (!scan.ok()) return Status::OK();
  uint64_t cut = scan.value().valid_end;
  for (const WalRecord& record : scan.value().records) {
    if (record.from_version >= oldest_kept) {
      cut = record.offset;
      break;
    }
  }
  if (cut == 0) return Status::OK();

  // Rewrite the log as the surviving suffix, atomically, and re-seat the
  // writer on the new file (the old fd points at the renamed-away inode).
  auto bytes = ReadFile(wal_path);
  if (!bytes.ok()) return Status::OK();
  std::string suffix =
      bytes.value().substr(cut, scan.value().valid_end - cut);
  const uint64_t new_end = suffix.size();
  Status rewritten = WriteFileAtomic(dir_, kWalName, suffix);
  if (!rewritten.ok()) return Status::OK();
  auto reopened = WalWriter::Open(wal_path, new_end);
  if (!reopened.ok()) {
    wedged_ = true;  // the old fd is stale; appending would hit a dead inode
    return reopened.status();
  }
  wal_ = std::move(reopened.value());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.wal_bytes_trimmed += static_cast<int64_t>(cut);
  }
  return Status::OK();
}

DurableEpochStore::Stats DurableEpochStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace smoqe::storage

// Snapshot store: versioned, checksummed serialization of one epoch's
// document -- (version, Tree) -- plus the manifest that tracks the newest
// durable snapshot. The DocPlane is not stored: it is a pure function of
// the tree, and recovery derives it once after WAL replay.
//
// File format (snapshot-<version 20 digits>.snap):
//
//   [magic u32 'SMQS'] [payload_len u64] [payload] [crc32c(payload) u32]
//
// The payload is [version u64 | tree arena]: the tree's RAW arena --
// labels, every node slot including tombstoned (detached) ones, the text
// pool, root, counters. The raw arena matters: WAL deltas address nodes by
// NodeId, and fresh inserts take ids at the arena END, so replay after
// recovery is only correct if the loaded tree is id-for-id identical to the
// one the deltas were recorded against (see the determinism notes in
// tree.h / tree_delta.h).
//
// Snapshots are written via temp file + fsync + atomic rename (fs.h), so a
// crash mid-write leaves at most an orphaned *.tmp; the manifest (same
// framing, magic 'SMQM') is renamed into place only after its snapshot is
// durable. Readers verify length and CRC before decoding; the decoder
// bounds-checks every field and then verifies that the arena is a tree
// (parents precede children, child lists agree with parent links, counters
// match), so corrupt input of ANY shape yields a Status, never UB or an
// endless walk -- the corruption-fuzz suite drives these paths directly.

#ifndef SMOQE_STORAGE_SNAPSHOT_H_
#define SMOQE_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"

namespace smoqe::storage {

inline constexpr char kManifestName[] = "MANIFEST";
inline constexpr char kWalName[] = "wal.log";

/// "snapshot-<zero-padded version>.snap" (lexicographic == numeric order).
std::string SnapshotFileName(uint64_t version);

/// A decoded snapshot: a mutable tree (recovery replays the WAL onto it)
/// and its version.
struct DecodedSnapshot {
  xml::Tree tree;
  uint64_t version = 0;
};

/// Serializes the tree into the framed + checksummed file bytes.
std::string EncodeSnapshotFile(const xml::Tree& tree, uint64_t version);

/// Verifies framing + CRC and decodes. Safe on arbitrary bytes.
StatusOr<DecodedSnapshot> DecodeSnapshotFile(std::string_view bytes);

/// Writes the snapshot atomically into `dir` and re-points the manifest.
/// Instrumented with the kSnapshotWrite / kSnapshotRename fault sites.
Status WriteSnapshot(const std::string& dir, const xml::Tree& tree,
                     uint64_t version);

/// Ignores `plane` and forwards. It exists only for the call at
/// servebench/src/trace.cc:415, which is frozen until the next benchmark
/// change; nothing else may call it. Delete it once that call passes the
/// tree alone.
inline Status WriteSnapshot(const std::string& dir, const xml::Tree& tree,
                            const xml::DocPlane& /*plane*/, uint64_t version) {
  return WriteSnapshot(dir, tree, version);
}

StatusOr<DecodedSnapshot> ReadSnapshotFile(const std::string& path);

struct Manifest {
  uint64_t version = 0;
  std::string snapshot_file;
};

Status WriteManifest(const std::string& dir, const Manifest& manifest);
StatusOr<Manifest> ReadManifest(const std::string& dir);

/// (version, filename) of every well-named snapshot in `dir`, newest first.
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir);

}  // namespace smoqe::storage

#endif  // SMOQE_STORAGE_SNAPSHOT_H_

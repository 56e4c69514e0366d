// The storage layer (PR 9): checksummed snapshots, the write-ahead delta
// log, and recovery.
//
// Property families:
//  * Wire forms round-trip BIT-EXACTLY: a decoded snapshot's tree is
//    id-for-id the encoded one (WAL deltas address NodeIds, so replay after
//    recovery depends on it), and a serialized TreeDelta re-applies
//    identically. A CRC-valid snapshot whose arena is not a tree is
//    refused, one case per shape rule.
//  * Recovery: WAL replay from a snapshot reaches the last durable version;
//    torn/corrupt tails are truncated, not fatal; a corrupt newest snapshot
//    falls back to the previous one; Fsck predicts exactly what Recover
//    does, without mutating anything.
//  * The durable store keeps its invariants under injected failures: stale
//    deltas and failed publishes leave NO durable record for an unpublished
//    version; WAL-level failures wedge the store but never the disk;
//    compaction failures are survivable.
//  * Corruption fuzz: thousands of randomized bit flips / truncations over
//    snapshot files, WAL files, and delta payloads decode to a Status or a
//    value -- never a crash (the ASan CI job gives this teeth). Some
//    snapshot mutations are re-framed with a valid CRC so they reach the
//    tree decoder, and every tree it accepts is walked as recovery would.
//  * The durable QueryService serves the recovered document and applies
//    writes through the WAL-before-publish path.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fault_injection.h"
#include "exec/query_service.h"
#include "storage/crc32c.h"
#include "storage/durable_epoch.h"
#include "storage/fs.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "xml/doc_plane.h"
#include "xml/tree.h"
#include "xml/tree_delta.h"
#include "xml/writer.h"

namespace smoqe {
namespace {

using storage::DurableEpochStore;
using storage::StorageOptions;
using xml::Fragment;
using xml::NodeId;
using xml::Tree;
using xml::TreeDelta;

const char* const kLabels[] = {"a", "b", "c", "d", "e"};

// Reachable elements in document order (iterative; excludes tombstones).
std::vector<NodeId> ReachableElements(const Tree& tree) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (tree.is_element(n)) out.push_back(n);
    for (NodeId c = tree.first_child(n); c != xml::kNullNode;
         c = tree.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  return out;
}

Tree RandomTree(int num_elements, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tree tree;
  std::vector<NodeId> elements = {tree.AddRoot("a")};
  for (int i = 1; i < num_elements; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(tree.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.2) {
      tree.AddText(elements.back(), coin(rng) < 0.5 ? "alpha" : "beta");
    }
  }
  return tree;
}

Fragment RandomFragment(std::mt19937_64& rng, int max_elements) {
  Tree scratch;
  std::vector<NodeId> elements = {scratch.AddRoot(kLabels[rng() % 5])};
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const int n = 1 + static_cast<int>(rng() % max_elements);
  for (int i = 1; i < n; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(scratch.AddElement(parent, kLabels[rng() % 5]));
    if (coin(rng) < 0.3) scratch.AddText(elements.back(), "gamma");
  }
  return Fragment::Capture(scratch, scratch.root());
}

// A delta of `num_ops` random edits against `tree` at `version`, generated
// on a scratch copy so each op targets a node live at its point in the
// sequence (same discipline as the tree_delta suite).
TreeDelta RandomDelta(const Tree& tree, uint64_t version, int num_ops,
                      std::mt19937_64& rng) {
  Tree scratch = tree;
  TreeDelta delta(version);
  for (int i = 0; i < num_ops; ++i) {
    std::vector<NodeId> elements = ReachableElements(scratch);
    const int kind = static_cast<int>(rng() % 3);
    if (kind == 0 && elements.size() > 1) {
      NodeId victim = elements[1 + rng() % (elements.size() - 1)];
      delta.AddDelete(victim);
      TreeDelta step(0);
      step.AddDelete(victim);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch delete";
    } else if (kind == 1) {
      NodeId parent = elements[rng() % elements.size()];
      const int32_t slot = static_cast<int32_t>(rng() % 4);
      Fragment fragment = RandomFragment(rng, 6);
      delta.AddInsert(parent, slot, fragment);
      TreeDelta step(0);
      step.AddInsert(parent, slot, std::move(fragment));
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch insert";
    } else {
      NodeId node = elements[rng() % elements.size()];
      const char* label = kLabels[rng() % 5];
      delta.AddRelabel(node, label);
      TreeDelta step(0);
      step.AddRelabel(node, label);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok()) << "scratch relabel";
    }
  }
  return delta;
}

// A per-test scratch directory under the gtest temp root, emptied on entry
// so reruns start clean.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "smoqe_storage_" + name;
  EXPECT_TRUE(storage::EnsureDir(dir).ok());
  auto names = storage::ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : names.value()) {
      (void)storage::RemoveFile(dir + "/" + f);
    }
  }
  return dir;
}

uint64_t FileSize(const std::string& path) {
  auto bytes = storage::ReadFile(path);
  return bytes.ok() ? bytes.value().size() : 0;
}

void FlipByte(const std::string& dir, const std::string& name, size_t pos) {
  auto bytes = storage::ReadFile(dir + "/" + name);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  std::string mutated = bytes.value();
  ASSERT_FALSE(mutated.empty());
  mutated[pos % mutated.size()] ^= 0x40;
  ASSERT_TRUE(storage::WriteFileAtomic(dir, name, mutated).ok());
}

void TruncateTo(const std::string& dir, const std::string& name, size_t len) {
  auto bytes = storage::ReadFile(dir + "/" + name);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  std::string mutated = bytes.value().substr(0, len);
  ASSERT_TRUE(storage::WriteFileAtomic(dir, name, mutated).ok());
}

// Recomputes the trailing CRC32C of a framed file image
// ([magic u32][len u64][payload][crc32c u32]), so a patched payload passes
// the checksum and only the decoder can refuse it.
std::string Reframe(std::string bytes) {
  const uint32_t crc =
      storage::Crc32c(std::string_view(bytes).substr(12, bytes.size() - 16));
  bytes.resize(bytes.size() - 4);
  common::PutU32(&bytes, crc);
  return bytes;
}

// ------------------------------------------------------------- crc32c --

TEST(Crc32cTest, KnownVectorsAndIncrementalExtend) {
  // The canonical CRC-32C check value (RFC 3720 appendix B / "123456789").
  EXPECT_EQ(storage::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(storage::Crc32c(""), 0u);
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = storage::Crc32cExtend(0, data.data(), split);
    crc = storage::Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, storage::Crc32c(data)) << "split " << split;
  }
}

// ---------------------------------------------------- delta wire form --

TEST(DeltaWireTest, SerializeDeserializeReappliesIdentically) {
  std::mt19937_64 rng(0xD417A);
  for (int round = 0; round < 40; ++round) {
    Tree tree = RandomTree(20 + round % 30, 1000 + round);
    TreeDelta delta = RandomDelta(tree, round, 1 + round % 4, rng);

    std::string wire;
    delta.Serialize(&wire);
    auto decoded = TreeDelta::Deserialize(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value().from_version(), delta.from_version());
    EXPECT_EQ(decoded.value().to_version(), delta.to_version());
    ASSERT_EQ(decoded.value().ops().size(), delta.ops().size());

    Tree a = tree;
    Tree b = tree;
    ASSERT_TRUE(delta.ApplyTo(&a).ok());
    ASSERT_TRUE(decoded.value().ApplyTo(&b).ok());
    EXPECT_EQ(xml::WriteXml(a), xml::WriteXml(b)) << "round " << round;
  }
}

TEST(DeltaWireTest, TruncationsAndGarbageYieldStatusNotCrash) {
  std::mt19937_64 rng(0xBAD);
  Tree tree = RandomTree(30, 7);
  TreeDelta delta = RandomDelta(tree, 3, 4, rng);
  std::string wire;
  delta.Serialize(&wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    auto decoded =
        TreeDelta::Deserialize(std::string_view(wire).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  // Trailing garbage is rejected too: a record's length frame is exact.
  auto padded = TreeDelta::Deserialize(wire + std::string(3, '\0'));
  EXPECT_FALSE(padded.ok());
}

// ----------------------------------------------------------- snapshot --

TEST(SnapshotTest, RoundTripIsIdForIdExact) {
  std::mt19937_64 rng(0x5A9);
  for (int round = 0; round < 10; ++round) {
    Tree tree = RandomTree(40, 2000 + round);
    // Edit first so the arena holds tombstones: the codec must preserve
    // detached slots, not just the reachable shape.
    TreeDelta edits = RandomDelta(tree, 0, 3, rng);
    ASSERT_TRUE(edits.ApplyTo(&tree).ok());
    const uint64_t version = 17 + round;

    const std::string bytes = storage::EncodeSnapshotFile(tree, version);
    auto decoded = storage::DecodeSnapshotFile(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value().version, version);
    EXPECT_EQ(decoded.value().tree.size(), tree.size());
    EXPECT_EQ(xml::WriteXml(decoded.value().tree), xml::WriteXml(tree));

    // The id-for-id property the WAL depends on: one more delta, recorded
    // against the original, applies to the decoded tree with an identical
    // outcome (targets are NodeIds; fresh inserts allocate at the arena
    // end, so any arena divergence would surface here).
    TreeDelta probe = RandomDelta(tree, 1, 2, rng);
    Tree original_after = tree;
    ASSERT_TRUE(probe.ApplyTo(&original_after).ok());
    ASSERT_TRUE(probe.ApplyTo(&decoded.value().tree).ok());
    EXPECT_EQ(xml::WriteXml(decoded.value().tree),
              xml::WriteXml(original_after));
  }
}

TEST(SnapshotTest, DecodeRejectsArenasThatAreNotTrees) {
  // Each case patches one int32 of a valid image -- a node field or a tree
  // counter -- and re-frames it with a correct CRC, so the checksum passes
  // and the decoder's shape check must refuse it.
  Tree tree;
  const NodeId root = tree.AddRoot("a");
  const NodeId b = tree.AddElement(root, "b");
  const NodeId text = tree.AddText(b, "t");
  const NodeId c = tree.AddElement(root, "c");
  const NodeId d = tree.AddElement(root, "d");
  tree.AddElement(d, "e");
  tree.DetachSubtree(d);  // d and its child become detached slots
  const std::string bytes = storage::EncodeSnapshotFile(tree, 7);
  ASSERT_EQ(Reframe(bytes), bytes);
  ASSERT_TRUE(storage::DecodeSnapshotFile(bytes).ok());

  // Node slots follow the frame header, the version, the label table and
  // the node count; each is a kind byte and seven int32s. The tree trailer
  // (root, element count, detached count) ends the payload.
  size_t nodes = 12 + 8 + 4 + 4;
  for (int i = 0; i < tree.labels().size(); ++i) {
    nodes += 4 + tree.labels().name(i).size();
  }
  constexpr size_t kLabel = 1;
  constexpr size_t kText = 5;
  constexpr size_t kParent = 9;
  constexpr size_t kFirstChild = 13;
  constexpr size_t kLastChild = 17;
  constexpr size_t kNextSibling = 21;
  constexpr size_t kChildIndex = 25;
  auto slot = [nodes](NodeId id, size_t field) {
    return nodes + 29 * static_cast<size_t>(id) + field;
  };
  const size_t trailer = bytes.size() - 4 - 12;
  struct Case {
    const char* what;
    size_t offset;
    int32_t value;
    const char* error;
  };
  const Case cases[] = {
      {"detached slot's parent follows it", slot(d, kParent), d + 1,
       "parent does not precede child"},
      {"sibling self-loop", slot(c, kNextSibling), c, "child list"},
      {"child cycle back to the root", slot(c, kNextSibling), root,
       "child list"},
      {"parent disagrees with its list", slot(c, kParent), b, "child list"},
      {"parented slot missing from its list", slot(d, kParent), root,
       "child list"},
      {"child_index disagrees", slot(c, kChildIndex), 3, "child list"},
      {"last_child disagrees", slot(root, kLastChild), b, "child list"},
      {"text slot with a child", slot(text, kFirstChild), c, "malformed"},
      {"text slot without a text index", slot(text, kText), -1, "malformed"},
      {"element slot without a label", slot(c, kLabel), -1, "malformed"},
      {"root not at slot 0", trailer, b, "root or counters"},
      {"element count disagrees", trailer + 4, 4, "root or counters"},
      {"detached count disagrees", trailer + 8, 1, "root or counters"},
  };
  for (const Case& k : cases) {
    std::string patched = bytes;
    std::string field;
    common::PutI32(&field, k.value);
    patched.replace(k.offset, 4, field);
    auto decoded = storage::DecodeSnapshotFile(Reframe(std::move(patched)));
    EXPECT_FALSE(decoded.ok()) << k.what;
    if (decoded.ok()) continue;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << k.what;
    EXPECT_NE(decoded.status().message().find(k.error), std::string::npos)
        << k.what << ": " << decoded.status().message();
  }
}

TEST(SnapshotTest, ManifestTracksNewestAndListSortsNewestFirst) {
  const std::string dir = FreshDir("manifest");
  Tree tree = RandomTree(15, 3);
  for (uint64_t v : {5u, 1u, 9u}) {
    ASSERT_TRUE(storage::WriteSnapshot(dir, tree, v).ok());
  }
  auto manifest = storage::ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().message();
  EXPECT_EQ(manifest.value().version, 9u);
  EXPECT_EQ(manifest.value().snapshot_file, storage::SnapshotFileName(9));

  auto list = storage::ListSnapshots(dir);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 3u);
  EXPECT_EQ(list.value()[0].first, 9u);
  EXPECT_EQ(list.value()[1].first, 5u);
  EXPECT_EQ(list.value()[2].first, 1u);
}

// ---------------------------------------------------------------- wal --

TEST(WalTest, AppendScanRoundTripAndTornTail) {
  const std::string dir = FreshDir("wal");
  const std::string path = dir + "/" + storage::kWalName;
  std::mt19937_64 rng(11);
  Tree tree = RandomTree(25, 11);

  std::vector<TreeDelta> deltas;
  {
    auto wal = storage::WalWriter::Open(path, 0);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    Tree current = tree;
    for (uint64_t v = 0; v < 3; ++v) {
      TreeDelta delta = RandomDelta(current, v, 2, rng);
      ASSERT_TRUE(wal.value()->Append(delta).ok());
      ASSERT_TRUE(wal.value()->Sync().ok());
      ASSERT_TRUE(delta.ApplyTo(&current).ok());
      deltas.push_back(std::move(delta));
    }
  }

  auto scan = storage::ScanWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().records.size(), 3u);
  EXPECT_FALSE(scan.value().tail_corrupt());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scan.value().records[i].from_version, i);
    auto decoded = TreeDelta::Deserialize(scan.value().records[i].payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().to_version(), deltas[i].to_version());
  }

  // Tear the last record: the scan keeps the intact prefix and reports the
  // tail, and a writer re-opened at valid_end drops the tear.
  const uint64_t full = scan.value().file_size;
  TruncateTo(dir, storage::kWalName, full - 5);
  auto torn = storage::ScanWal(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn.value().records.size(), 2u);
  EXPECT_TRUE(torn.value().tail_corrupt());
  EXPECT_FALSE(torn.value().tail_reason.empty());

  // A flipped bit mid-record fails the CRC, same containment.
  TruncateTo(dir, storage::kWalName, full - 5);
  FlipByte(dir, storage::kWalName, static_cast<size_t>(
                                       torn.value().records[1].offset + 20));
  auto flipped = storage::ScanWal(path);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(flipped.value().records.size(), 1u);
  EXPECT_TRUE(flipped.value().tail_corrupt());
}

// ----------------------------------------------------------- recovery --

// A directory with snapshot v0 and a 3-record WAL, the last record torn.
// Returns the tree as of version 2 (the last intact record's outcome).
Tree BuildTornDir(const std::string& dir, uint64_t seed) {
  Tree tree = RandomTree(30, seed);
  EXPECT_TRUE(storage::WriteSnapshot(dir, tree, 0).ok());
  const std::string path = dir + "/" + storage::kWalName;
  std::mt19937_64 rng(seed);
  auto wal = storage::WalWriter::Open(path, 0);
  EXPECT_TRUE(wal.ok());
  Tree current = tree;
  Tree after_two;
  for (uint64_t v = 0; v < 3; ++v) {
    TreeDelta delta = RandomDelta(current, v, 2, rng);
    EXPECT_TRUE(wal.value()->Append(delta).ok());
    EXPECT_TRUE(delta.ApplyTo(&current).ok());
    if (v == 1) after_two = current;
  }
  wal.value()->Sync();
  wal.value().reset();
  auto scan = storage::ScanWal(path);
  EXPECT_TRUE(scan.ok());
  // Drop the last 7 bytes: the third record is torn mid-payload.
  std::string bytes = storage::ReadFile(path).value();
  EXPECT_TRUE(storage::WriteFileAtomic(dir, storage::kWalName,
                                       bytes.substr(0, bytes.size() - 7))
                  .ok());
  return after_two;
}

TEST(RecoveryTest, ReplaysWalTruncatesTornTailAndFsckAgrees) {
  const std::string dir = FreshDir("recover_torn");
  Tree expected = BuildTornDir(dir, 42);
  const uint64_t pre_size = FileSize(dir + "/" + storage::kWalName);

  // Fsck first: it must predict the recovery WITHOUT changing the disk.
  storage::FsckReport fsck = storage::Fsck(dir);
  EXPECT_TRUE(fsck.ok);
  EXPECT_EQ(FileSize(dir + "/" + storage::kWalName), pre_size);
  EXPECT_FALSE(fsck.notes.empty());

  storage::RecoveryReport report;
  auto epoch = storage::Recover(dir, &report);
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_EQ(report.recovered_version, 2u);
  EXPECT_EQ(report.snapshot_version, 0u);
  EXPECT_EQ(report.records_replayed, 2);
  EXPECT_GT(report.bytes_truncated, 0);
  EXPECT_EQ(report.snapshots_skipped, 0);

  // smoqe_fsck agreement: field for field.
  EXPECT_EQ(fsck.report.recovered_version, report.recovered_version);
  EXPECT_EQ(fsck.report.snapshot_version, report.snapshot_version);
  EXPECT_EQ(fsck.report.records_replayed, report.records_replayed);
  EXPECT_EQ(fsck.report.bytes_truncated, report.bytes_truncated);
  EXPECT_EQ(fsck.report.snapshots_skipped, report.snapshots_skipped);

  EXPECT_EQ(epoch.value().version, 2u);
  EXPECT_EQ(xml::WriteXml(*epoch.value().tree), xml::WriteXml(expected));
  EXPECT_TRUE(
      epoch.value().plane->SameAs(xml::DocPlane::Build(*epoch.value().tree)));

  // Recover repaired the tail: the log shrank and a second walk is clean.
  EXPECT_LT(FileSize(dir + "/" + storage::kWalName), pre_size);
  storage::FsckReport clean = storage::Fsck(dir);
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(clean.report.bytes_truncated, 0);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackToPrevious) {
  const std::string dir = FreshDir("recover_fallback");
  Tree tree = RandomTree(30, 9);
  ASSERT_TRUE(storage::WriteSnapshot(dir, tree, 0).ok());

  // Advance to version 2 with the WAL intact, snapshot at 2, then corrupt
  // that newest snapshot: recovery must fall back to v0 and REPLAY the WAL
  // past it (the trim discipline keeps those records around).
  std::mt19937_64 rng(9);
  auto wal = storage::WalWriter::Open(dir + "/" + storage::kWalName, 0);
  ASSERT_TRUE(wal.ok());
  Tree current = tree;
  for (uint64_t v = 0; v < 2; ++v) {
    TreeDelta delta = RandomDelta(current, v, 2, rng);
    ASSERT_TRUE(wal.value()->Append(delta).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
    ASSERT_TRUE(delta.ApplyTo(&current).ok());
  }
  ASSERT_TRUE(storage::WriteSnapshot(dir, current, 2).ok());
  FlipByte(dir, storage::SnapshotFileName(2), 100);

  storage::RecoveryReport report;
  auto epoch = storage::Recover(dir, &report);
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_EQ(report.snapshots_skipped, 1);
  EXPECT_EQ(report.snapshot_version, 0u);
  EXPECT_EQ(report.records_replayed, 2);
  EXPECT_EQ(report.recovered_version, 2u);
  EXPECT_EQ(xml::WriteXml(*epoch.value().tree), xml::WriteXml(current));

  // With EVERY snapshot corrupt there is nothing to recover from.
  FlipByte(dir, storage::SnapshotFileName(0), 50);
  storage::FsckReport fsck = storage::Fsck(dir);
  EXPECT_FALSE(fsck.ok);
  auto dead = storage::Recover(dir);
  EXPECT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------ durable store --

TEST(DurableStoreTest, ReopenRecoversTheExactPublishedState) {
  const std::string dir = FreshDir("store_roundtrip");
  std::mt19937_64 rng(77);
  Tree expected = RandomTree(40, 77);

  {
    auto store =
        DurableEpochStore::Open(dir, StorageOptions{.snapshot_every = 1000},
                                Tree(expected));
    ASSERT_TRUE(store.ok()) << store.status().message();
    for (int k = 0; k < 12; ++k) {
      TreeDelta delta =
          RandomDelta(expected, store.value()->version(), 1 + k % 3, rng);
      ASSERT_TRUE(store.value()->Apply(delta).ok()) << "delta " << k;
      ASSERT_TRUE(delta.ApplyTo(&expected).ok());
    }
    EXPECT_EQ(store.value()->version(), 12u);
    EXPECT_EQ(store.value()->stats().wal_appends, 12);
  }

  auto reopened =
      DurableEpochStore::Open(dir, StorageOptions{}, RandomTree(5, 1));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->version(), 12u);
  EXPECT_EQ(reopened.value()->recovery_report().records_replayed, 12);
  xml::PlaneEpoch epoch = reopened.value()->Snapshot();
  EXPECT_EQ(xml::WriteXml(*epoch.tree), xml::WriteXml(expected));
  EXPECT_TRUE(epoch.plane->SameAs(xml::DocPlane::Build(*epoch.tree)));
}

TEST(DurableStoreTest, CompactionPrunesSnapshotsTrimsWalAndStaysRecoverable) {
  const std::string dir = FreshDir("store_compact");
  std::mt19937_64 rng(123);
  Tree expected = RandomTree(30, 123);

  StorageOptions options;
  options.snapshot_every = 4;
  options.snapshots_kept = 2;
  {
    auto store = DurableEpochStore::Open(dir, options, Tree(expected));
    ASSERT_TRUE(store.ok()) << store.status().message();
    for (int k = 0; k < 20; ++k) {
      TreeDelta delta = RandomDelta(expected, store.value()->version(), 1, rng);
      ASSERT_TRUE(store.value()->Apply(delta).ok()) << "delta " << k;
      ASSERT_TRUE(delta.ApplyTo(&expected).ok());
    }
    const DurableEpochStore::Stats stats = store.value()->stats();
    EXPECT_GE(stats.snapshots_written, 5);  // initial + every 4 deltas
    EXPECT_GT(stats.wal_bytes_trimmed, 0);
  }

  auto snapshots = storage::ListSnapshots(dir);
  ASSERT_TRUE(snapshots.ok());
  EXPECT_EQ(snapshots.value().size(), 2u);  // pruned to snapshots_kept

  {
    auto reopened = DurableEpochStore::Open(dir, options, RandomTree(5, 1));
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->version(), 20u);
    EXPECT_EQ(xml::WriteXml(*reopened.value()->Snapshot().tree),
              xml::WriteXml(expected));
  }

  // The fallback discipline: corrupt the NEWEST snapshot; the WAL was
  // trimmed only to the OLDEST kept snapshot's version, so the previous
  // snapshot still replays to the present.
  FlipByte(dir, snapshots.value()[0].second, 200);
  storage::RecoveryReport report;
  auto epoch = storage::Recover(dir, &report);
  ASSERT_TRUE(epoch.ok()) << epoch.status().message();
  EXPECT_EQ(report.snapshots_skipped, 1);
  EXPECT_EQ(report.recovered_version, 20u);
  EXPECT_EQ(xml::WriteXml(*epoch.value().tree), xml::WriteXml(expected));
}

TEST(DurableStoreTest, StaleDeltaLeavesNoDurableRecord) {
  const std::string dir = FreshDir("store_stale");
  std::mt19937_64 rng(5);
  Tree tree = RandomTree(20, 5);
  auto store = DurableEpochStore::Open(dir, StorageOptions{}, Tree(tree));
  ASSERT_TRUE(store.ok());

  const uint64_t wal_before = FileSize(dir + "/" + storage::kWalName);
  TreeDelta stale = RandomDelta(tree, 7, 1, rng);  // version 7 != 0
  Status s = store.value()->Apply(stale);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(FileSize(dir + "/" + storage::kWalName), wal_before);
  EXPECT_EQ(store.value()->stats().wal_appends, 0);

  // The store is NOT wedged by a stale delta: a correct one still applies.
  TreeDelta good = RandomDelta(tree, 0, 1, rng);
  EXPECT_TRUE(store.value()->Apply(good).ok());
}

#ifdef SMOQE_FAULT_INJECTION

TEST(DurableStoreTest, FailedPublishRollsTheWalRecordBack) {
  const std::string dir = FreshDir("store_rollback");
  std::mt19937_64 rng(31);
  Tree tree = RandomTree(25, 31);
  auto store = DurableEpochStore::Open(dir, StorageOptions{}, Tree(tree));
  ASSERT_TRUE(store.ok());
  const uint64_t wal_before = FileSize(dir + "/" + storage::kWalName);

  auto& fi = FaultInjector::Global();
  fi.Arm(0xF00);
  fi.SetPlan(FaultSite::kEpochApply,
             {FaultKind::kTransientError, 1, {}, /*window_first=*/0,
              /*window_count=*/1});
  TreeDelta delta = RandomDelta(tree, 0, 2, rng);
  Status s = store.value()->Apply(delta);
  fi.Disarm();

  // The publish failed AFTER the record was fsync'd; the store must have
  // rolled the record back -- no durable record for an unpublished version.
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(store.value()->version(), 0u);
  EXPECT_EQ(FileSize(dir + "/" + storage::kWalName), wal_before);
  EXPECT_EQ(store.value()->stats().wal_rollbacks, 1);

  // Not wedged: the same delta applies cleanly now, and a reopen agrees.
  ASSERT_TRUE(store.value()->Apply(delta).ok());
  store.value().reset();
  auto reopened = DurableEpochStore::Open(dir, StorageOptions{}, Tree(tree));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->version(), 1u);
}

TEST(DurableStoreTest, TornWalAppendWedgesTheStoreNotTheDisk) {
  const std::string dir = FreshDir("store_torn_append");
  std::mt19937_64 rng(47);
  Tree tree = RandomTree(25, 47);
  Tree expected = tree;
  auto store = DurableEpochStore::Open(dir, StorageOptions{}, Tree(tree));
  ASSERT_TRUE(store.ok());
  TreeDelta first = RandomDelta(expected, 0, 1, rng);
  ASSERT_TRUE(store.value()->Apply(first).ok());
  ASSERT_TRUE(first.ApplyTo(&expected).ok());

  auto& fi = FaultInjector::Global();
  fi.Arm(0xDEAD);
  fi.SetPlan(FaultSite::kWalAppend,
             {FaultKind::kTornWrite, 1, {}, /*window_first=*/0,
              /*window_count=*/1});
  TreeDelta second = RandomDelta(expected, 1, 1, rng);
  Status s = store.value()->Apply(second);
  fi.Disarm();
  EXPECT_FALSE(s.ok());

  // Wedged: the log is torn on disk, so every further Apply refuses.
  TreeDelta third = RandomDelta(expected, 1, 1, rng);
  EXPECT_EQ(store.value()->Apply(third).code(),
            StatusCode::kFailedPrecondition);

  // But recovery from disk lands exactly on the last PUBLISHED version,
  // truncating whatever prefix of the torn record persisted.
  store.value().reset();
  auto reopened = DurableEpochStore::Open(dir, StorageOptions{}, Tree(tree));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->version(), 1u);
  EXPECT_EQ(xml::WriteXml(*reopened.value()->Snapshot().tree),
            xml::WriteXml(expected));
}

TEST(DurableStoreTest, CompactionFailureIsSurvivable) {
  const std::string dir = FreshDir("store_compact_fail");
  std::mt19937_64 rng(88);
  Tree expected = RandomTree(25, 88);
  StorageOptions options;
  options.snapshot_every = 1;  // compact after every delta
  auto store = DurableEpochStore::Open(dir, options, Tree(expected));
  ASSERT_TRUE(store.ok());

  auto& fi = FaultInjector::Global();
  fi.Arm(0xC0);
  fi.SetPlan(FaultSite::kSnapshotWrite,
             {FaultKind::kTransientError, 1, {}, /*window_first=*/0,
              /*window_count=*/1});
  TreeDelta delta = RandomDelta(expected, 0, 1, rng);
  // The delta itself succeeds -- only the post-publish compaction failed.
  EXPECT_TRUE(store.value()->Apply(delta).ok());
  ASSERT_TRUE(delta.ApplyTo(&expected).ok());
  fi.Disarm();
  EXPECT_EQ(store.value()->stats().compactions_failed, 1);
  EXPECT_EQ(store.value()->version(), 1u);

  // The next interval retries and succeeds; reopen agrees throughout.
  TreeDelta next = RandomDelta(expected, 1, 1, rng);
  EXPECT_TRUE(store.value()->Apply(next).ok());
  ASSERT_TRUE(next.ApplyTo(&expected).ok());
  EXPECT_GE(store.value()->stats().snapshots_written, 2);
  store.value().reset();
  auto reopened = DurableEpochStore::Open(dir, StorageOptions{}, Tree());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->version(), 2u);
  EXPECT_EQ(xml::WriteXml(*reopened.value()->Snapshot().tree),
            xml::WriteXml(expected));
}

#endif  // SMOQE_FAULT_INJECTION

// ---------------------------------------------------- corruption fuzz --

TEST(CorruptionFuzzTest, NoMutatedInputEverCrashesADecoder) {
  // 3000 randomized corruptions across the three decoders. The assertion is
  // the weakest possible -- "returned" -- because the property under test is
  // memory safety: every iteration must yield a value or a Status, and the
  // ASan job turns any overread into a failure. Half the snapshot inputs
  // flip bits inside the payload and are re-framed with a valid CRC, so
  // they reach the tree decoder; every tree it accepts is then walked the
  // way recovery walks it, which an arena that is not a tree would loop in.
  std::mt19937_64 rng(0xF022);
  Tree tree = RandomTree(35, 0xF022);
  TreeDelta edits = RandomDelta(tree, 0, 3, rng);
  EXPECT_TRUE(edits.ApplyTo(&tree).ok());
  const std::string snapshot_bytes = storage::EncodeSnapshotFile(tree, 42);

  std::string delta_bytes;
  RandomDelta(tree, 42, 4, rng).Serialize(&delta_bytes);

  const std::string dir = FreshDir("fuzz");
  const std::string wal_path = dir + "/" + storage::kWalName;
  std::string wal_bytes;
  {
    auto wal = storage::WalWriter::Open(wal_path, 0);
    ASSERT_TRUE(wal.ok());
    Tree current = tree;
    for (uint64_t v = 42; v < 45; ++v) {
      TreeDelta delta = RandomDelta(current, v, 2, rng);
      ASSERT_TRUE(wal.value()->Append(delta).ok());
      ASSERT_TRUE(delta.ApplyTo(&current).ok());
    }
    wal_bytes = storage::ReadFile(wal_path).value();
  }

  auto mutate = [&rng](const std::string& original) {
    std::string m = original;
    switch (rng() % 4) {
      case 0:  // bit flip(s)
        for (uint64_t flips = 1 + rng() % 4; flips > 0 && !m.empty(); --flips) {
          m[rng() % m.size()] ^=
              static_cast<char>(1u << (rng() % 8));
        }
        break;
      case 1:  // truncate
        m.resize(m.empty() ? 0 : rng() % m.size());
        break;
      case 2:  // truncate AND flip (torn + damaged tail)
        m.resize(m.empty() ? 0 : rng() % m.size());
        if (!m.empty()) m[rng() % m.size()] ^= 0x10;
        break;
      default: {  // unstructured garbage of a similar size
        const size_t n = rng() % (original.size() + 16);
        m.assign(n, '\0');
        for (char& c : m) c = static_cast<char>(rng());
        break;
      }
    }
    return m;
  };

  auto flip_payload = [&rng](const std::string& original) {
    std::string m = original;
    for (uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
      m[12 + rng() % (m.size() - 16)] ^= static_cast<char>(1u << (rng() % 8));
    }
    return Reframe(std::move(m));
  };

  int decoded_fine = 0;
  int refused_past_crc = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    switch (iter % 3) {
      case 0: {
        const bool reframed = iter % 2 == 0;
        const std::string input =
            reframed ? flip_payload(snapshot_bytes) : mutate(snapshot_bytes);
        auto r = storage::DecodeSnapshotFile(input);
        if (r.ok()) {
          ++decoded_fine;
          const Tree& accepted = r.value().tree;
          EXPECT_EQ(xml::DocPlane::Build(accepted).size(),
                    accepted.CountElements());
          EXPECT_FALSE(xml::WriteXml(accepted).empty());
        } else if (reframed) {
          // The frame is valid, so the refusal must come from the decoder.
          const std::string& why = r.status().message();
          EXPECT_EQ(why.find("checksum"), std::string::npos) << why;
          EXPECT_EQ(why.find("length"), std::string::npos) << why;
          EXPECT_EQ(why.find("magic"), std::string::npos) << why;
          ++refused_past_crc;
        }
        break;
      }
      case 1: {
        auto r = TreeDelta::Deserialize(mutate(delta_bytes));
        decoded_fine += r.ok() ? 1 : 0;
        break;
      }
      default: {
        ASSERT_TRUE(storage::WriteFileAtomic(dir, storage::kWalName,
                                             mutate(wal_bytes))
                        .ok());
        auto scan = storage::ScanWal(wal_path);
        ASSERT_TRUE(scan.ok());
        // Whatever records survived the mutation must still decode safely.
        for (const storage::WalRecord& record : scan.value().records) {
          auto r = TreeDelta::Deserialize(record.payload);
          decoded_fine += r.ok() ? 1 : 0;
        }
        break;
      }
    }
  }
  // Sanity: the harness is actually exercising both outcomes (some inputs
  // survive mutation -- e.g. WAL prefixes ahead of a truncation point), and
  // re-framed snapshots get past the CRC into the tree decoder.
  EXPECT_GT(decoded_fine, 0);
  EXPECT_GT(refused_past_crc, 0);
}

// ------------------------------------------- durable query service --

TEST(DurableQueryServiceTest, ServesAppliesAndRecoversAcrossReopen) {
  const std::string dir = FreshDir("service");
  Tree initial;
  {
    NodeId root = initial.AddRoot("db");
    NodeId a = initial.AddElement(root, "item");
    initial.AddText(initial.AddElement(a, "name"), "first");
    NodeId b = initial.AddElement(root, "item");
    initial.AddText(initial.AddElement(b, "name"), "second");
  }

  exec::QueryServiceOptions options;
  options.storage_dir = dir;
  options.num_threads = 2;
  {
    auto service = exec::QueryService::Open(Tree(initial), options);
    ASSERT_TRUE(service.ok()) << service.status().message();
    auto before = service.value()->Query("//name");
    ASSERT_TRUE(before.ok()) << before.status().message();
    EXPECT_EQ(before.value().size(), 2u);
    EXPECT_EQ(service.value()->document_version(), 0u);

    // A write: one more <item><name/></item> under the root.
    Tree frag;
    NodeId froot = frag.AddRoot("item");
    frag.AddText(frag.AddElement(froot, "name"), "third");
    TreeDelta delta(0);
    delta.AddInsert(initial.root(), 0, Fragment::Capture(frag, frag.root()));
    ASSERT_TRUE(service.value()->Apply(delta).ok());
    EXPECT_EQ(service.value()->document_version(), 1u);
    EXPECT_EQ(service.value()->stats().writes_applied, 1);

    auto after = service.value()->Query("//name");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().size(), 3u);

    // Stale write: rejected, version unchanged.
    TreeDelta stale(0);
    stale.AddRelabel(initial.root(), "nope");
    EXPECT_EQ(service.value()->Apply(stale).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.value()->document_version(), 1u);
  }

  // Reopen: the applied write was durable; `initial` is ignored.
  auto reopened = exec::QueryService::Open(Tree(initial), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->document_version(), 1u);
  auto answer = reopened.value()->Query("//name");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().size(), 3u);
  ASSERT_NE(reopened.value()->storage(), nullptr);
  EXPECT_EQ(reopened.value()->storage()->recovery_report().records_replayed,
            1);
}

TEST(DurableQueryServiceTest, OpenRejectsExternalDocumentReferences) {
  Tree tree = RandomTree(10, 2);
  xml::DocPlane plane = xml::DocPlane::Build(tree);

  exec::QueryServiceOptions no_dir;
  auto missing = exec::QueryService::Open(Tree(tree), no_dir);
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  exec::QueryServiceOptions with_plane;
  with_plane.storage_dir = FreshDir("service_reject");
  with_plane.plane = &plane;
  auto rejected = exec::QueryService::Open(Tree(tree), with_plane);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // And the inverse: Apply on an in-memory service is a precondition error.
  exec::QueryService in_memory(tree);
  TreeDelta delta(0);
  delta.AddRelabel(tree.root(), "x");
  EXPECT_EQ(in_memory.Apply(std::move(delta)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(in_memory.document_version(), 0u);
}

}  // namespace
}  // namespace smoqe

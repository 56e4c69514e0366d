// The kill-point recovery chaos suite (PR 9): the durability contract of
// storage::DurableEpochStore under simulated crashes at every storage fault
// site and every WAL record boundary.
//
// The oracle, per kill:
//
//   - recovery NEVER fails (Fsck reports recoverable, Open succeeds);
//   - the recovered version v is in [last_published, last_attempted]: a
//     fsync-point kill can leave one fully-written record that replays as
//     redo (durable state may run AHEAD of published state, never behind --
//     storage/wal.h design note), and nothing else is possible;
//   - the recovered tree is BIT-IDENTICAL (WriteXml) to the tree at version
//     v as recorded when that version was produced, and the recovered plane
//     is SameAs a from-scratch DocPlane::Build -- never a torn publish, at
//     worst a bounded rollback;
//   - Fsck, run non-mutatingly BEFORE the repairing recovery, predicts the
//     recovery's report field for field.
//
// Every decision in a round derives from its logged seed, so any failure
// reproduces exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
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
    if (coin(rng) < 0.2) tree.AddText(elements.back(), "t");
  }
  return tree;
}

Fragment RandomFragment(std::mt19937_64& rng, int max_elements) {
  Tree scratch;
  std::vector<NodeId> elements = {scratch.AddRoot(kLabels[rng() % 5])};
  const int n = 1 + static_cast<int>(rng() % max_elements);
  for (int i = 1; i < n; ++i) {
    NodeId parent = elements[rng() % elements.size()];
    elements.push_back(scratch.AddElement(parent, kLabels[rng() % 5]));
  }
  return Fragment::Capture(scratch, scratch.root());
}

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
      EXPECT_TRUE(step.ApplyTo(&scratch).ok());
    } else if (kind == 1) {
      NodeId parent = elements[rng() % elements.size()];
      Fragment fragment = RandomFragment(rng, 5);
      delta.AddInsert(parent, static_cast<int32_t>(rng() % 3), fragment);
      TreeDelta step(0);
      step.AddInsert(parent, static_cast<int32_t>(rng() % 3),
                     std::move(fragment));
      EXPECT_TRUE(step.ApplyTo(&scratch).ok());
    } else {
      NodeId node = elements[rng() % elements.size()];
      delta.AddRelabel(node, kLabels[rng() % 5]);
      TreeDelta step(0);
      step.AddRelabel(node, kLabels[rng() % 5]);
      EXPECT_TRUE(step.ApplyTo(&scratch).ok());
    }
  }
  return delta;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "smoqe_recovery_" + name;
  EXPECT_TRUE(storage::EnsureDir(dir).ok());
  auto names = storage::ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : names.value()) {
      (void)storage::RemoveFile(dir + "/" + f);
    }
  }
  return dir;
}

// Fsck (non-mutating) + Open (repairing recovery), with the agreement and
// bit-identity oracle. `xml_of_version` maps each produced version --
// published AND last-attempted -- to its serialized document.
std::unique_ptr<DurableEpochStore> RecoverAndCheck(
    const std::string& dir, const StorageOptions& options,
    uint64_t last_published, uint64_t last_attempted,
    const std::map<uint64_t, std::string>& xml_of_version,
    const std::string& trace) {
  storage::FsckReport fsck = storage::Fsck(dir);
  EXPECT_TRUE(fsck.ok) << trace;

  auto reopened = DurableEpochStore::Open(dir, options, Tree());
  EXPECT_TRUE(reopened.ok()) << trace << ": " << reopened.status().message();
  if (!reopened.ok()) return nullptr;
  std::unique_ptr<DurableEpochStore> store = std::move(reopened.value());

  const storage::RecoveryReport& report = store->recovery_report();
  EXPECT_EQ(fsck.report.recovered_version, report.recovered_version) << trace;
  EXPECT_EQ(fsck.report.snapshot_version, report.snapshot_version) << trace;
  EXPECT_EQ(fsck.report.records_replayed, report.records_replayed) << trace;
  EXPECT_EQ(fsck.report.bytes_truncated, report.bytes_truncated) << trace;
  EXPECT_EQ(fsck.report.snapshots_skipped, report.snapshots_skipped) << trace;

  const uint64_t v = store->version();
  EXPECT_GE(v, last_published) << trace << ": durable state fell BEHIND";
  EXPECT_LE(v, last_attempted) << trace << ": phantom version recovered";
  auto it = xml_of_version.find(v);
  EXPECT_TRUE(it != xml_of_version.end()) << trace << ": version " << v;
  if (it != xml_of_version.end()) {
    xml::PlaneEpoch epoch = store->Snapshot();
    EXPECT_EQ(xml::WriteXml(*epoch.tree), it->second)
        << trace << ": torn state at version " << v;
    EXPECT_TRUE(epoch.plane->SameAs(xml::DocPlane::Build(*epoch.tree)))
        << trace << ": plane diverged from Build at version " << v;
  }
  return store;
}

TEST(RecoveryChaosTest, KillAtEveryFaultSiteRecoversBitIdentically) {
#ifndef SMOQE_FAULT_INJECTION
  GTEST_SKIP() << "built with SMOQE_FAULT_INJECTION=OFF; no sites compiled in";
#else
  constexpr int kRounds = 8;
  // Every storage fault site, in both plain-error and (where the site is a
  // data write) torn-prefix shape.
  const std::vector<std::pair<FaultSite, FaultKind>> kKills = {
      {FaultSite::kWalAppend, FaultKind::kTransientError},
      {FaultSite::kWalAppend, FaultKind::kTornWrite},
      {FaultSite::kWalFsync, FaultKind::kTransientError},
      {FaultSite::kSnapshotWrite, FaultKind::kTransientError},
      {FaultSite::kSnapshotWrite, FaultKind::kTornWrite},
      {FaultSite::kSnapshotRename, FaultKind::kTransientError},
  };

  auto& fi = FaultInjector::Global();
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t seed = 0x9E0C0DE0ULL + static_cast<uint64_t>(round);
    SCOPED_TRACE("recovery chaos seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);

    const std::string dir = FreshDir("kill_" + std::to_string(round));
    StorageOptions options;
    options.snapshot_every = 2 + round % 4;  // compactions mid-stream
    options.snapshots_kept = 2;

    Tree expected = RandomTree(25 + round * 4, seed);
    std::map<uint64_t, std::string> xml_of_version;
    xml_of_version[0] = xml::WriteXml(expected);
    uint64_t published = 0;

    auto opened = DurableEpochStore::Open(dir, options, Tree(expected));
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<DurableEpochStore> store = std::move(opened.value());

    for (const auto& [site, kind] : kKills) {
      const std::string trace =
          "seed " + std::to_string(seed) + " site " +
          std::to_string(static_cast<int>(site)) + " kind " +
          std::to_string(static_cast<int>(kind));
      // Vary which traversal of the site the kill lands on, so over the
      // rounds the kill point walks through first/later hits (e.g. the
      // snapshot write of the 1st vs a later compaction).
      const uint32_t kill_hit = static_cast<uint32_t>(rng() % 3);
      fi.Arm(seed ^ (static_cast<uint64_t>(site) << 8));
      fi.SetPlan(site, {kind, 1, {}, kill_hit, 1});

      uint64_t last_attempted = published;
      for (int step = 0; step < 10 && fi.fired(site) == 0; ++step) {
        TreeDelta delta = RandomDelta(expected, published, 1 + rng() % 2, rng);
        Tree next = expected;
        ASSERT_TRUE(delta.ApplyTo(&next).ok()) << trace;
        last_attempted = delta.to_version();
        xml_of_version[last_attempted] = xml::WriteXml(next);
        Status applied = store->Apply(delta);
        if (applied.ok()) {
          expected = std::move(next);
          published = delta.to_version();
        } else {
          break;  // crash point: the store is wedged or the write was lost
        }
      }
      fi.Disarm();

      // Simulated crash: drop the live store with NO cleanup -- the disk
      // stays exactly as the failure left it -- then recover cold.
      store.reset();
      store = RecoverAndCheck(dir, options, published, last_attempted,
                              xml_of_version, trace);
      ASSERT_NE(store, nullptr) << trace;

      // Resynchronize the model to the recovered state (a fsync-point kill
      // legitimately redoes one un-published record) and keep streaming:
      // the store must keep accepting writes after every recovery.
      published = store->version();
      expected = Tree(*store->Snapshot().tree);
      TreeDelta resume = RandomDelta(expected, published, 1, rng);
      ASSERT_TRUE(store->Apply(resume).ok())
          << trace << ": store did not resume after recovery";
      ASSERT_TRUE(resume.ApplyTo(&expected).ok());
      published = resume.to_version();
      xml_of_version[published] = xml::WriteXml(expected);
    }
  }
#endif  // SMOQE_FAULT_INJECTION
}

TEST(RecoveryChaosTest, TruncationAtEveryRecordBoundaryRecovers) {
  // No injection needed: build a healthy store (no compaction, so the WAL
  // holds the full version chain from snapshot 0), then cut the log at
  // EVERY record boundary and at probe offsets inside every record. Each
  // cut must recover to exactly the number of whole records before it.
  const uint64_t seed = 0x7C0FFEE;
  std::mt19937_64 rng(seed);
  const std::string dir = FreshDir("boundary");
  StorageOptions options;
  options.snapshot_every = 1000;  // never compact: keep all records

  Tree expected = RandomTree(30, seed);
  std::map<uint64_t, std::string> xml_of_version;
  xml_of_version[0] = xml::WriteXml(expected);

  constexpr int kDeltas = 6;
  {
    auto store = DurableEpochStore::Open(dir, options, Tree(expected));
    ASSERT_TRUE(store.ok()) << store.status().message();
    for (int k = 0; k < kDeltas; ++k) {
      TreeDelta delta =
          RandomDelta(expected, store.value()->version(), 1 + k % 3, rng);
      ASSERT_TRUE(store.value()->Apply(delta).ok()) << "delta " << k;
      ASSERT_TRUE(delta.ApplyTo(&expected).ok());
      xml_of_version[delta.to_version()] = xml::WriteXml(expected);
    }
  }

  const std::string wal_path = dir + "/" + storage::kWalName;
  auto healthy = storage::ReadFile(wal_path);
  ASSERT_TRUE(healthy.ok());
  auto scan = storage::ScanWal(wal_path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().records.size(), static_cast<size_t>(kDeltas));

  // Cut points: every record's start (clean boundary), plus offsets 1, 8,
  // and 17 bytes into it (torn header / torn header tail / torn payload),
  // plus the exact end of file.
  std::vector<std::pair<uint64_t, uint64_t>> cuts;  // (offset, whole records)
  for (size_t r = 0; r < scan.value().records.size(); ++r) {
    const uint64_t off = scan.value().records[r].offset;
    cuts.push_back({off, r});
    for (uint64_t probe : {1u, 8u, 17u}) {
      if (off + probe < scan.value().file_size) {
        cuts.push_back({off + probe, r});
      }
    }
  }
  cuts.push_back({scan.value().file_size, scan.value().records.size()});

  for (const auto& [cut, whole_records] : cuts) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    ASSERT_TRUE(storage::WriteFileAtomic(dir, storage::kWalName,
                                         healthy.value().substr(0, cut))
                    .ok());
    // Probes inside record r may land inside the PREVIOUS record's payload
    // frame only for r's own bytes, so the replayable prefix is exactly
    // `whole_records` -- except a probe that lands beyond r's start but
    // before its end never completes r.
    storage::FsckReport fsck = storage::Fsck(dir);
    EXPECT_TRUE(fsck.ok);
    storage::RecoveryReport report;
    auto epoch = storage::Recover(dir, &report);
    ASSERT_TRUE(epoch.ok()) << epoch.status().message();
    EXPECT_EQ(report.recovered_version, whole_records);
    EXPECT_EQ(report.records_replayed, static_cast<int64_t>(whole_records));
    EXPECT_EQ(fsck.report.recovered_version, report.recovered_version);
    EXPECT_EQ(fsck.report.bytes_truncated, report.bytes_truncated);
    EXPECT_EQ(xml::WriteXml(*epoch.value().tree),
              xml_of_version.at(report.recovered_version));
    EXPECT_TRUE(
        epoch.value().plane->SameAs(xml::DocPlane::Build(*epoch.value().tree)));
  }
}

}  // namespace
}  // namespace smoqe

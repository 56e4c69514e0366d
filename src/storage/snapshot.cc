#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "common/codec.h"
#include "common/fault_injection.h"
#include "storage/crc32c.h"
#include "storage/fs.h"

namespace smoqe::xml {

// Friend of Tree (see tree.h): encodes/decodes the RAW arena so a recovered
// tree is id-for-id identical to the one the WAL's deltas address --
// tombstoned slots, end-of-arena insert ids and all.
struct TreeCodec {
  static void Encode(const Tree& tree, std::string* out) {
    common::PutU32(out, static_cast<uint32_t>(tree.labels_.size()));
    for (int i = 0; i < tree.labels_.size(); ++i) {
      common::PutBytes(out, tree.labels_.name(i));
    }
    common::PutU32(out, static_cast<uint32_t>(tree.nodes_.size()));
    for (const Node& n : tree.nodes_) {
      common::PutU8(out, static_cast<uint8_t>(n.kind));
      common::PutI32(out, n.label);
      common::PutI32(out, n.text);
      common::PutI32(out, n.parent);
      common::PutI32(out, n.first_child);
      common::PutI32(out, n.last_child);
      common::PutI32(out, n.next_sibling);
      common::PutI32(out, n.child_index);
    }
    common::PutU32(out, static_cast<uint32_t>(tree.texts_.size()));
    for (const std::string& t : tree.texts_) common::PutBytes(out, t);
    common::PutI32(out, tree.root_);
    common::PutI32(out, tree.num_elements_);
    common::PutI32(out, tree.num_detached_);
  }

  static Status Decode(common::Cursor* cur, Tree* tree) {
    uint32_t label_count = 0;
    if (!cur->ReadU32(&label_count) ||
        label_count > cur->remaining() / 4) {  // each label >= 4 bytes
      return Status::ParseError("snapshot: bad label table");
    }
    for (uint32_t i = 0; i < label_count; ++i) {
      std::string name;
      if (!cur->ReadBytes(&name)) {
        return Status::ParseError("snapshot: truncated label");
      }
      // Interning in order reproduces the original ids 0..n-1; a duplicate
      // name would silently alias two ids, so reject it.
      if (tree->labels_.Intern(name) != static_cast<LabelId>(i)) {
        return Status::ParseError("snapshot: duplicate label");
      }
    }
    uint32_t node_count = 0;
    if (!cur->ReadU32(&node_count) ||
        node_count > cur->remaining() / 29) {  // 29 bytes per node
      return Status::ParseError("snapshot: bad node count");
    }
    const auto nc = static_cast<int32_t>(node_count);
    tree->nodes_.reserve(node_count);
    for (uint32_t i = 0; i < node_count; ++i) {
      Node n;
      uint8_t kind = 0;
      if (!cur->ReadU8(&kind) || !cur->ReadI32(&n.label) ||
          !cur->ReadI32(&n.text) || !cur->ReadI32(&n.parent) ||
          !cur->ReadI32(&n.first_child) || !cur->ReadI32(&n.last_child) ||
          !cur->ReadI32(&n.next_sibling) || !cur->ReadI32(&n.child_index)) {
        return Status::ParseError("snapshot: truncated node");
      }
      if (kind > static_cast<uint8_t>(NodeKind::kText) ||
          n.label < kNoLabel ||
          n.label >= static_cast<LabelId>(label_count) || n.parent < -1 ||
          n.parent >= nc || n.first_child < -1 || n.first_child >= nc ||
          n.last_child < -1 || n.last_child >= nc || n.next_sibling < -1 ||
          n.next_sibling >= nc) {
        return Status::ParseError("snapshot: node fields out of range");
      }
      n.kind = static_cast<NodeKind>(kind);
      tree->nodes_.push_back(n);
    }
    uint32_t text_count = 0;
    if (!cur->ReadU32(&text_count) || text_count > cur->remaining() / 4) {
      return Status::ParseError("snapshot: bad text pool");
    }
    tree->texts_.reserve(text_count);
    for (uint32_t i = 0; i < text_count; ++i) {
      std::string t;
      if (!cur->ReadBytes(&t)) {
        return Status::ParseError("snapshot: truncated text");
      }
      tree->texts_.push_back(std::move(t));
    }
    // Text indices could not be validated until the pool size was known.
    for (const Node& n : tree->nodes_) {
      if (n.text < -1 || n.text >= static_cast<int32_t>(text_count)) {
        return Status::ParseError("snapshot: text index out of range");
      }
    }
    if (!cur->ReadI32(&tree->root_) || !cur->ReadI32(&tree->num_elements_) ||
        !cur->ReadI32(&tree->num_detached_)) {
      return Status::ParseError("snapshot: truncated tree trailer");
    }
    return CheckShape(*tree);
  }

  // The range checks keep every field in bounds; this keeps every walk
  // finite. The arena must be a forest rooted at slot 0 whose child lists
  // agree with the parent links ("parents precede children", tree.h) and
  // whose counters match what the root reaches. Detached slots are checked
  // too: the publisher's size estimate walks them. O(N), no recursion.
  static Status CheckShape(const Tree& tree) {
    const std::vector<Node>& nodes = tree.nodes_;
    const auto nc = static_cast<NodeId>(nodes.size());
    auto bad_list = [] {
      return Status::ParseError("snapshot: child list disagrees with parents");
    };
    int32_t listed = 0;
    int32_t parented = 0;
    int32_t reached = 0;
    int32_t elements = 0;
    std::vector<uint8_t> reachable(nodes.size(), 0);
    for (NodeId id = 0; id < nc; ++id) {
      const Node& n = nodes[id];
      const bool text = n.kind == NodeKind::kText;
      if (n.parent >= id) {
        return Status::ParseError("snapshot: parent does not precede child");
      }
      if (text ? (n.first_child != kNullNode || n.text < 0) : n.label < 0) {
        return Status::ParseError("snapshot: malformed text or element slot");
      }
      // child_index is fixed per slot, so a list that comes back to a slot
      // (a cycle) fails the index check there.
      NodeId last = kNullNode;
      int32_t index = 0;
      for (NodeId c = n.first_child; c != kNullNode;
           c = nodes[c].next_sibling) {
        if (nodes[c].parent != id || nodes[c].child_index != ++index) {
          return bad_list();
        }
        last = c;
      }
      if (n.last_child != last ||
          (n.parent == kNullNode && n.next_sibling != kNullNode)) {
        return bad_list();
      }
      listed += index;
      if (n.parent != kNullNode) ++parented;
      if (id == 0 || (n.parent != kNullNode && reachable[n.parent] != 0)) {
        reachable[id] = 1;
        ++reached;
        if (!text) ++elements;
      }
    }
    // A listed slot names its list's owner as parent and is listed once, so
    // equal counts mean every parented slot is in its parent's list.
    if (listed != parented) return bad_list();
    if (tree.root_ != (nc > 0 ? 0 : kNullNode) ||
        (nc > 0 && nodes[0].kind != NodeKind::kElement) ||
        tree.num_elements_ != elements || tree.num_detached_ != nc - reached) {
      return Status::ParseError("snapshot: root or counters disagree");
    }
    return Status::OK();
  }
};

}  // namespace smoqe::xml

namespace smoqe::storage {

namespace {

constexpr uint32_t kSnapshotMagic = 0x53514d53;  // 'SMQS'
constexpr uint32_t kManifestMagic = 0x4d514d53;  // 'SMQM'
constexpr uint64_t kMaxPayload = 1ull << 40;

// Frames a payload as [magic][len u64][payload][crc32c(payload)].
std::string Frame(uint32_t magic, std::string payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  common::PutU32(&out, magic);
  common::PutU64(&out, payload.size());
  const uint32_t crc = Crc32c(payload);
  out += payload;
  common::PutU32(&out, crc);
  return out;
}

// Verifies framing + CRC; returns the payload view into `bytes`.
StatusOr<std::string_view> Unframe(uint32_t magic, std::string_view bytes) {
  common::Cursor cur(bytes);
  uint32_t got_magic = 0;
  uint64_t len = 0;
  if (!cur.ReadU32(&got_magic) || !cur.ReadU64(&len)) {
    return Status::ParseError("file too short for header");
  }
  if (got_magic != magic) return Status::ParseError("bad magic");
  if (len > kMaxPayload || len + 16 != bytes.size()) {
    return Status::ParseError("length mismatch");
  }
  std::string_view payload = bytes.substr(12, len);
  common::Cursor tail(bytes.substr(12 + len));
  uint32_t crc = 0;
  if (!tail.ReadU32(&crc) || crc != Crc32c(payload)) {
    return Status::ParseError("checksum mismatch");
  }
  return payload;
}

}  // namespace

std::string SnapshotFileName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.snap",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string EncodeSnapshotFile(const xml::Tree& tree, uint64_t version) {
  std::string payload;
  common::PutU64(&payload, version);
  xml::TreeCodec::Encode(tree, &payload);
  return Frame(kSnapshotMagic, std::move(payload));
}

StatusOr<DecodedSnapshot> DecodeSnapshotFile(std::string_view bytes) {
  auto payload = Unframe(kSnapshotMagic, bytes);
  if (!payload.ok()) return payload.status();
  common::Cursor cur(payload.value());
  DecodedSnapshot snap;
  if (!cur.ReadU64(&snap.version)) {
    return Status::ParseError("snapshot: truncated version");
  }
  SMOQE_RETURN_IF_ERROR(xml::TreeCodec::Decode(&cur, &snap.tree));
  if (cur.remaining() != 0) {
    return Status::ParseError("snapshot: trailing bytes");
  }
  return snap;
}

Status WriteSnapshot(const std::string& dir, const xml::Tree& tree,
                     uint64_t version) {
  const std::string file = SnapshotFileName(version);
  SMOQE_RETURN_IF_ERROR(
      WriteFileAtomic(dir, file, EncodeSnapshotFile(tree, version),
                      FaultSite::kSnapshotWrite, FaultSite::kSnapshotRename));
  return WriteManifest(dir, {version, file});
}

StatusOr<DecodedSnapshot> ReadSnapshotFile(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshotFile(bytes.value());
}

Status WriteManifest(const std::string& dir, const Manifest& manifest) {
  std::string payload;
  common::PutU64(&payload, manifest.version);
  common::PutBytes(&payload, manifest.snapshot_file);
  return WriteFileAtomic(dir, kManifestName,
                         Frame(kManifestMagic, std::move(payload)),
                         FaultSite::kSnapshotWrite,
                         FaultSite::kSnapshotRename);
}

StatusOr<Manifest> ReadManifest(const std::string& dir) {
  auto bytes = ReadFile(dir + "/" + kManifestName);
  if (!bytes.ok()) return bytes.status();
  auto payload = Unframe(kManifestMagic, bytes.value());
  if (!payload.ok()) return payload.status();
  common::Cursor cur(payload.value());
  Manifest m;
  if (!cur.ReadU64(&m.version) || !cur.ReadBytes(&m.snapshot_file) ||
      cur.remaining() != 0) {
    return Status::ParseError("manifest: malformed payload");
  }
  return m;
}

StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir) {
  auto names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : names.value()) {
    uint64_t version = 0;
    // Exactly "snapshot-<20 digits>.snap".
    if (name.size() != 9 + 20 + 5 || name.compare(0, 9, "snapshot-") != 0 ||
        name.compare(29, 5, ".snap") != 0) {
      continue;
    }
    bool digits = true;
    for (size_t i = 9; i < 29; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      version = version * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits) out.emplace_back(version, name);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace smoqe::storage

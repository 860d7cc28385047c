#include "core/tree_io.h"

#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fs.h"

namespace mrcc {
namespace {

constexpr char kMagic[4] = {'M', 'R', 'T', 'R'};
constexpr uint32_t kVersion = 1;

// magic, version, d, H, total_points, node_count.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 3 * sizeof(uint32_t) +
                                2 * sizeof(uint64_t);

/// On-disk bytes of one node record (level, base coordinates, cell
/// count) and of one cell record (loc, count, child, half counts).
constexpr uint64_t NodeBytes(uint64_t d) {
  return sizeof(int32_t) + d * sizeof(uint64_t) + sizeof(uint64_t);
}
constexpr uint64_t CellBytes(uint64_t d) {
  return sizeof(uint64_t) + sizeof(uint32_t) + sizeof(int32_t) +
         d * sizeof(uint32_t);
}

/// Sequential cursor over serialized tree bytes. Every read names the
/// section it parses, so an error can say *which* record failed and at
/// what offset — "cell record ends at byte 91213" locates the damage in
/// a multi-megabyte artifact without a hex dump.
class TreeCursor {
 public:
  TreeCursor(std::string_view bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  template <typename T>
  [[nodiscard]] Status Read(const char* section, T* v) {
    if (bytes_.size() - pos_ < sizeof(T)) {
      return Status::IOError("truncated tree file " + path_ + ": " + section +
                             " ends at byte " + std::to_string(bytes_.size()) +
                             " (needed " + std::to_string(sizeof(T)) +
                             " bytes at offset " + std::to_string(pos_) + ")");
    }
    field_start_ = pos_;
    std::memcpy(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Reads `count` consecutive fields of one section into `out`. When the
  /// whole run fits in the remaining bytes it is one memcpy; otherwise
  /// the fields are read one by one, so a short stream fails on exactly
  /// the field a per-field parse would name.
  template <typename T>
  [[nodiscard]] Status ReadArray(const char* section, T* out, size_t count) {
    const size_t run = count * sizeof(T);
    if (bytes_.size() - pos_ < run) {
      for (size_t k = 0; k < count; ++k) {
        MRCC_RETURN_IF_ERROR(Read(section, &out[k]));
      }
      return Status::OK();
    }
    field_start_ = pos_ + run - sizeof(T);
    std::memcpy(out, bytes_.data() + pos_, run);
    pos_ += run;
    return Status::OK();
  }

  /// Rejects a value that parsed but cannot be right, pointing at the
  /// offset where the offending field starts.
  Status Bad(const char* section, const std::string& why) const {
    return BadAt(section, field_start_, why);
  }

  /// Bad() for a field at `offset`, read without the cursor.
  Status BadAt(const char* section, size_t offset,
               const std::string& why) const {
    return Status::IOError("bad " + std::string(section) + " in " + path_ +
                           " at byte " + std::to_string(offset) + ": " + why);
  }

  /// The unread bytes.
  const char* here() const { return bytes_.data() + pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  /// Advances past `n` bytes; false (and no move) when fewer remain.
  bool Skip(uint64_t n) {
    if (bytes_.size() - pos_ < n) return false;
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t size() const { return bytes_.size(); }

 private:
  std::string_view bytes_;
  const std::string& path_;
  size_t pos_ = 0;
  size_t field_start_ = 0;
};

}  // namespace

std::string SerializeTree(const CountingTree& tree, size_t trailer_bytes) {
  // The record sizes (NodeBytes, CellBytes) follow the element types
  // copied below.
  static_assert(std::is_same_v<decltype(CountingTree::base_)::value_type,
                               uint64_t>);
  static_assert(std::is_same_v<decltype(CountingTree::Arena::loc)::value_type,
                               uint64_t>);
  static_assert(std::is_same_v<decltype(CountingTree::Arena::n)::value_type,
                               uint32_t>);
  static_assert(
      std::is_same_v<decltype(CountingTree::Arena::child)::value_type,
                     int32_t>);
  static_assert(
      std::is_same_v<decltype(CountingTree::Arena::half)::value_type,
                     uint32_t>);
  MRCC_DCHECK(tree.pending_ == nullptr);
  const size_t d = tree.num_dims();
  size_t cells = 0;
  for (const CountingTree::Node& node : tree.nodes_) cells += node.count;
  const size_t size = kHeaderBytes + tree.nodes_.size() * NodeBytes(d) +
                      cells * CellBytes(d);
  // Sized once, then filled field by field: one memcpy per field or
  // per run of same-typed fields, no growth checks.
  std::string out;
  out.reserve(size + trailer_bytes);
  out.resize(size);
  char* p = out.data();
  const auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  const auto put_run = [&p](const auto* v, size_t count) {
    std::memcpy(p, v, count * sizeof(*v));
    p += count * sizeof(*v);
  };
  put(kMagic);
  put(kVersion);
  put(static_cast<uint32_t>(d));
  put(static_cast<uint32_t>(tree.num_resolutions()));
  put(static_cast<uint64_t>(tree.total_points()));
  put(static_cast<uint64_t>(tree.num_nodes()));
  for (size_t m = 0; m < tree.nodes_.size(); ++m) {
    const CountingTree::Node& node = tree.nodes_[m];
    const CountingTree::Arena& arena =
        tree.arenas_[static_cast<size_t>(node.level)];
    put(static_cast<int32_t>(node.level));
    put_run(tree.BaseOf(static_cast<uint32_t>(m)), d);
    put(static_cast<uint64_t>(node.count));
    for (uint32_t c = 0; c < node.count; ++c) {
      const size_t i = static_cast<size_t>(node.first) + c;
      put(arena.loc[i]);
      put(arena.n[i]);
      put(arena.child[i]);
      put_run(arena.half.data() + i * d, d);  // lint-allow: cell-storage
    }
  }
  MRCC_CHECK_EQ(static_cast<size_t>(p - out.data()), size);
  return out;
}

Status SaveTree(const CountingTree& tree, const std::string& path) {
  return WriteFileAtomic(path, SerializeTree(tree));
}

Result<CountingTree> ParseTree(std::string_view bytes,
                               const std::string& path) {
  TreeCursor in(bytes, path);
  char magic[4];
  MRCC_RETURN_IF_ERROR(in.Read("magic", &magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return in.Bad("magic", "expected \"MRTR\"");
  }
  uint32_t version = 0, dims = 0, resolutions = 0;
  uint64_t total_points = 0, node_count = 0;
  MRCC_RETURN_IF_ERROR(in.Read("version", &version));
  if (version != kVersion) {
    return in.Bad("version", "unsupported version " + std::to_string(version) +
                                 " (reader supports " +
                                 std::to_string(kVersion) + ")");
  }
  MRCC_RETURN_IF_ERROR(in.Read("header dims", &dims));
  MRCC_RETURN_IF_ERROR(in.Read("header resolutions", &resolutions));
  MRCC_RETURN_IF_ERROR(in.Read("header total_points", &total_points));
  MRCC_RETURN_IF_ERROR(in.Read("header node_count", &node_count));
  if (dims == 0 || dims > CountingTree::kMaxDims) {
    return in.Bad("header dims", "implausible value");
  }
  if (resolutions < 3 || resolutions > CountingTree::kMaxResolutions + 1) {
    return in.Bad("header resolutions", "implausible value");
  }
  // The counts in the header and the per-node records drive allocations,
  // so never trust them further than the byte count: a record of k
  // elements needs at least k * sizeof(element) bytes of payload. This
  // turns a corrupt or truncated stream into a clean IOError instead of
  // a multi-gigabyte resize.
  const uint64_t d = dims;
  const uint64_t node_bytes = NodeBytes(d);
  const uint64_t cell_bytes = CellBytes(d);
  if (node_count > bytes.size() / node_bytes) {
    return in.Bad("header node_count",
                  std::to_string(node_count) + " nodes cannot fit in " +
                      std::to_string(bytes.size()) + " bytes");
  }

  // Size each level arena exactly, as a built tree's are (MemoryBytes
  // counts capacity): a first walk over the node headers sums the cells
  // per level, skipping the cell records. It stops at the first record
  // that does not fit; the parse below reports that one.
  std::vector<uint64_t> level_cells(resolutions, 0);
  TreeCursor walk = in;
  for (uint64_t n = 0; n < node_count; ++n) {
    int32_t level = 0;
    uint64_t cell_count = 0;
    if (!walk.Read("node level", &level).ok() || level < 1 ||
        level >= static_cast<int32_t>(resolutions) ||
        !walk.Skip(d * sizeof(uint64_t)) ||
        !walk.Read("node cell_count", &cell_count).ok() ||
        cell_count > bytes.size() / cell_bytes ||
        !walk.Skip(cell_count * cell_bytes)) {
      break;
    }
    level_cells[static_cast<size_t>(level)] += cell_count;
  }

  CountingTree tree(dims, static_cast<int>(resolutions));
  tree.total_points_ = total_points;
  tree.arenas_.resize(resolutions);
  for (size_t h = 0; h < resolutions; ++h) {
    CountingTree::Arena& arena = tree.arenas_[h];
    arena.loc.reserve(level_cells[h]);
    arena.n.reserve(level_cells[h]);
    arena.child.reserve(level_cells[h]);
    arena.owner.reserve(level_cells[h]);
    arena.half.reserve(level_cells[h] * d);
  }
  tree.nodes_.resize(node_count);
  tree.base_.resize(node_count * d);
  // Nodes are on disk in pool (creation) order and cells in per-node
  // creation order, so appending each record to its level arena directly
  // reproduces the canonical layout, each level's nodes tiling its arena
  // in pool order.
  for (uint64_t n = 0; n < node_count; ++n) {
    CountingTree::Node& node = tree.nodes_[n];
    int32_t level = 0;
    MRCC_RETURN_IF_ERROR(in.Read("node level", &level));
    if (level < 1 || level >= static_cast<int32_t>(resolutions)) {
      return in.Bad("node level", "level " + std::to_string(level) +
                                      " outside [1, " +
                                      std::to_string(resolutions) + ")");
    }
    node.level = level;
    MRCC_RETURN_IF_ERROR(in.ReadArray("node base coordinate",
                                      tree.base_.data() + n * d, dims));
    uint64_t cell_count = 0;
    MRCC_RETURN_IF_ERROR(in.Read("node cell_count", &cell_count));
    if (cell_count > bytes.size() / cell_bytes) {
      return in.Bad("node cell_count",
                    std::to_string(cell_count) + " cells cannot fit in " +
                        std::to_string(bytes.size()) + " bytes");
    }
    CountingTree::Arena& arena = tree.arenas_[static_cast<size_t>(level)];
    const size_t at = arena.size();
    node.first = static_cast<uint32_t>(at);
    node.count = static_cast<uint32_t>(cell_count);
    const auto check_child = [&](int32_t child, size_t offset) {
      if (child >= 0 && static_cast<uint64_t>(child) >= node_count) {
        return in.BadAt("cell child pointer", offset,
                        "child " + std::to_string(child) +
                            " >= node count " + std::to_string(node_count));
      }
      return Status::OK();
    };
    const size_t count = static_cast<size_t>(cell_count);
    arena.loc.resize(at + count);
    arena.n.resize(at + count);
    arena.child.resize(at + count);
    arena.owner.resize(at + count, static_cast<uint32_t>(n));
    arena.half.resize((at + count) * d);
    if (cell_count * cell_bytes <= in.remaining()) {
      // The node's cell records all fit: one bounds check, then each
      // field is copied straight out of the stream (a cell record is
      // u64 loc at +0, u32 n at +8, i32 child at +12, d u32 half at +16).
      const char* p = in.here();
      for (size_t c = 0; c < count; ++c, p += cell_bytes) {
        const size_t i = at + c;
        std::memcpy(&arena.loc[i], p, sizeof(uint64_t));
        std::memcpy(&arena.n[i], p + 8, sizeof(uint32_t));
        std::memcpy(&arena.child[i], p + 12, sizeof(int32_t));
        MRCC_RETURN_IF_ERROR(check_child(
            arena.child[i], static_cast<size_t>(p + 12 - bytes.data())));
        std::memcpy(arena.half.data() + i * d, p + 16, d * sizeof(uint32_t));
      }
      MRCC_CHECK(in.Skip(cell_count * cell_bytes));
    } else {
      // A short stream: read field by field, so the error names exactly
      // the field that runs past the end.
      for (size_t c = 0; c < count; ++c) {
        const size_t i = at + c;
        MRCC_RETURN_IF_ERROR(in.Read("cell loc", &arena.loc[i]));
        MRCC_RETURN_IF_ERROR(in.Read("cell count", &arena.n[i]));
        MRCC_RETURN_IF_ERROR(in.Read("cell child pointer", &arena.child[i]));
        MRCC_RETURN_IF_ERROR(
            check_child(arena.child[i], in.pos() - sizeof(int32_t)));
        MRCC_RETURN_IF_ERROR(
            in.ReadArray("cell half count", arena.half.data() + i * d, dims));
      }
    }
  }
  if (in.pos() != in.size()) {
    return Status::IOError(
        "trailing garbage in tree file " + path + ": " +
        std::to_string(in.size() - in.pos()) + " bytes past the last node" +
        " (tree ends at byte " + std::to_string(in.pos()) + ")");
  }
  // Field-level reads above only prove the bytes parse; a well-formed
  // stream can still encode a structurally corrupt tree (half counts
  // exceeding the cell count, child sums that do not add up, duplicate
  // sibling locs, a pool out of creation order). A fold and the β-search
  // would turn such a tree into silent nonsense, so reject it at the I/O
  // boundary.
  if (Status v = tree.ValidateInvariants(); !v.ok()) {
    return Status::IOError("corrupt tree in " + path + ": " + v.message());
  }
  return tree;
}

Result<CountingTree> LoadTree(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  MRCC_RETURN_IF_ERROR(bytes.status());
  return ParseTree(*bytes, path);
}

Result<MergeTreeStats> MergeTree(CountingTree* tree,
                                 const CountingTree& other) {
  tree->Seal();  // Points Insert()ed since its last Seal() come first.
  if (&other == tree) {
    return Status::InvalidArgument("cannot merge a tree into itself");
  }
  if (!other.sealed()) {
    return Status::InvalidArgument(
        "source tree is not sealed: call Seal() before merging it");
  }
  const CountingTree* parts[] = {tree, &other};
  MergeTreeStats stats;
  Result<CountingTree> merged = CountingTree::Fold(parts, nullptr, &stats);
  MRCC_RETURN_IF_ERROR(merged.status());
  // Fold counts the destination's own cells as created; this call
  // reports only what `other` adds.
  for (int h = 1; h < tree->num_resolutions(); ++h) {
    stats.cells_created -= tree->NumCellsAtLevel(h);
    if (h + 1 < tree->num_resolutions()) {
      stats.nodes_created -= tree->NumCellsAtLevel(h);
    }
  }
  *tree = std::move(*merged);
  return stats;
}

}  // namespace mrcc

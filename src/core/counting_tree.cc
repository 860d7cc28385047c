#include "core/counting_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/simd.h"

namespace mrcc {
namespace {

// Debug-build hook shared by Seal and DropDeepestLevel: a structural
// violation at these points is a construction or merge bug, so abort with
// the invariant's message rather than return a Status the caller would
// have to treat as an input error.
void DCheckInvariants(const CountingTree& tree) {
#ifndef NDEBUG
  const Status v = tree.ValidateInvariants();
  if (!v.ok()) {
    internal::CheckFailed(__FILE__, __LINE__, "ValidateInvariants()",
                          v.message().c_str());
  }
#else
  (void)tree;
#endif
}

// splitmix64 finalizer — strong enough to spread consecutive loc codes
// over the power-of-two table.
inline uint64_t HashLoc(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Duplicate detector for one node's sibling locs at a time, reused by a
// ValidateInvariants walk across all nodes. Each slot is stamped with the
// generation (node) that filled it, so starting the next node is one
// increment instead of a clear, and the table only ever grows: the walk
// allocates a handful of times in total, never per node or per cell.
class SiblingLocSet {
 public:
  /// Empties the set and sizes it for up to `count` inserts.
  void Reset(size_t count) {
    size_t capacity = 8;
    while (capacity < 2 * count) capacity <<= 1;
    if (capacity > slots_.size()) {
      slots_.assign(capacity, Slot{});
      generation_ = 0;
    }
    if (++generation_ == 0) {  // Wrapped: old stamps would read as live.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      generation_ = 1;
    }
    mask_ = capacity - 1;
  }

  /// Adds `loc`; false when it is already in the set.
  bool Insert(uint64_t loc) {
    for (size_t s = HashLoc(loc) & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.generation != generation_) {
        slot = Slot{loc, generation_};
        return true;
      }
      if (slot.loc == loc) return false;
    }
  }

 private:
  struct Slot {
    uint64_t loc = 0;
    uint32_t generation = 0;
  };
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t generation_ = 0;
};

// Transposes the 8 x 8 bit matrix whose row r is byte r of x (bit r * 8 +
// c moves to bit c * 8 + r) in three rounds of block swaps.
inline uint64_t Transpose8x8(uint64_t x) {
  x = (x & 0xAA55AA55AA55AA55ull) | ((x & 0x00AA00AA00AA00AAull) << 7) |
      ((x >> 7) & 0x00AA00AA00AA00AAull);
  x = (x & 0xCCCC3333CCCC3333ull) | ((x & 0x0000CCCC0000CCCCull) << 14) |
      ((x >> 14) & 0x0000CCCC0000CCCCull);
  x = (x & 0xF0F0F0F00F0F0F0Full) | ((x & 0x00000000F0F0F0F0ull) << 28) |
      ((x >> 28) & 0x00000000F0F0F0F0ull);
  return x;
}

// Bits per digit of the run sort: 2048 buckets, whose counters and
// write cursors stay in L1/L2 while a pass streams the records.
constexpr int kRadixBits = 11;

// Bits [lo, lo + width) of the little-endian integer in key[0..words),
// width <= 64; bits past the last word read as 0.
inline uint64_t KeyBits(const uint64_t* key, size_t words, size_t lo,
                        int width) {
  const size_t w = lo >> 6;
  const unsigned shift = lo & 63;
  uint64_t v = key[w] >> shift;
  if (shift + static_cast<unsigned>(width) > 64 && w + 1 < words) {
    v |= key[w + 1] << (64 - shift);
  }
  return width >= 64 ? v : v & ((uint64_t{1} << width) - 1);
}

// Stable LSD radix sort of `records` (`stride` words each) by bits
// [lo, hi) of the little-endian integer in each record's first
// `key_words` words, kRadixBits per pass. All digit histograms come from
// one read pass; a pass whose digit is the same for every record moves
// nothing and is skipped.
void RadixSortRecords(std::vector<uint64_t>& records, size_t stride,
                      size_t key_words, size_t lo, size_t hi) {
  const size_t count = records.size() / stride;
  if (count < 2 || hi <= lo) return;
  constexpr size_t kBuckets = size_t{1} << kRadixBits;
  const size_t passes = (hi - lo + kRadixBits - 1) / kRadixBits;
  const auto width_of = [&](size_t pass) {
    return static_cast<int>(
        std::min<size_t>(kRadixBits, hi - lo - pass * kRadixBits));
  };
  std::vector<uint32_t> histograms(passes * kBuckets, 0);
  for (size_t r = 0; r < count; ++r) {
    const uint64_t* rec = records.data() + r * stride;
    for (size_t p = 0; p < passes; ++p) {
      ++histograms[p * kBuckets +
                   KeyBits(rec, key_words, lo + p * kRadixBits, width_of(p))];
    }
  }
  std::vector<uint64_t> scratch(records.size());
  for (size_t p = 0; p < passes; ++p) {
    uint32_t* next = histograms.data() + p * kBuckets;
    const size_t digit_lo = lo + p * kRadixBits;
    const int width = width_of(p);
    if (next[KeyBits(records.data(), key_words, digit_lo, width)] == count) {
      continue;
    }
    uint32_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = next[b];
      next[b] = start;
      start += c;
    }
    // One stable counting-sort pass: next[digit] is the bucket's next slot.
    for (size_t r = 0; r < count; ++r) {
      const uint64_t* rec = records.data() + r * stride;
      const size_t slot = next[KeyBits(rec, key_words, digit_lo, width)]++;
      std::copy(rec, rec + stride, scratch.data() + slot * stride);
    }
    records.swap(scratch);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LocMap: flat open-addressing loc -> cell table (linear probing).

void CountingTree::LocMap::Reserve(size_t entries) {
  size_t cap = 16;
  while (cap < entries * 2) cap <<= 1;
  if (cap <= keys_.size()) return;
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_vals = std::move(vals_);
  keys_.assign(cap, kEmpty);
  vals_.assign(cap, 0);
  size_ = 0;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] != kEmpty) Insert(old_keys[i], old_vals[i]);
  }
}

void CountingTree::LocMap::Grow() { Reserve(keys_.empty() ? 8 : size_ + 1); }

void CountingTree::LocMap::Insert(uint64_t loc, uint32_t cell) {
  if ((size_ + 1) * 2 > keys_.size()) Grow();
  const size_t mask = keys_.size() - 1;
  size_t idx = HashLoc(loc) & mask;
  while (keys_[idx] != kEmpty) {
    if (keys_[idx] == loc) {
      vals_[idx] = cell;
      return;
    }
    idx = (idx + 1) & mask;
  }
  keys_[idx] = loc;
  vals_[idx] = cell;
  ++size_;
}

int64_t CountingTree::LocMap::Find(uint64_t loc) const {
  if (keys_.empty()) return -1;
  const size_t mask = keys_.size() - 1;
  size_t idx = HashLoc(loc) & mask;
  while (keys_[idx] != kEmpty) {
    if (keys_[idx] == loc) return static_cast<int64_t>(vals_[idx]);
    idx = (idx + 1) & mask;
  }
  return -1;
}

size_t CountingTree::LocMap::MemoryBytes() const {
  return keys_.capacity() * sizeof(uint64_t) +
         vals_.capacity() * sizeof(uint32_t);
}

// ---------------------------------------------------------------------------
// CellIds: a node's cell list, stored in place up to kInline ids.

uint32_t CountingTree::CellIds::HeapCapacity(uint32_t size) {
  return std::bit_ceil(std::max<uint32_t>(size, 8));
}

void CountingTree::CellIds::push_back(uint32_t id) {
  if (size_ < kInline) {
    inline_[size_++] = id;
    return;
  }
  if (!heap_ || size_ == HeapCapacity(size_)) {
    // Moving to the heap, or the heap block is full: double it.
    auto grown =
        std::make_unique_for_overwrite<uint32_t[]>(HeapCapacity(size_ + 1));
    std::copy(begin(), end(), grown.get());
    heap_ = std::move(grown);
  }
  heap_[size_++] = id;
}

void CountingTree::CellIds::AssignIota(uint32_t first, uint32_t count) {
  heap_.reset();
  if (count > kInline) {
    heap_ = std::make_unique_for_overwrite<uint32_t[]>(HeapCapacity(count));
  }
  uint32_t* ids = heap_ ? heap_.get() : inline_;
  std::iota(ids, ids + count, first);
  size_ = count;
}

// ---------------------------------------------------------------------------
// Construction.

Result<CountingTree> CountingTree::Empty(size_t num_dims,
                                         int num_resolutions) {
  if (num_resolutions < 3) {
    return Status::InvalidArgument("num_resolutions (H) must be >= 3");
  }
  if (num_dims == 0 || num_dims > kMaxDims) {
    return Status::InvalidArgument(
        "dimensionality must be in [1, " + std::to_string(kMaxDims) + "]");
  }
  // Clamp to the deepest meaningful resolution (see kMaxResolutions): the
  // paper likewise allows truncating the tree to fit resources.
  const int h_effective = std::min(num_resolutions, kMaxResolutions + 1);
  CountingTree tree(num_dims, h_effective);
  tree.by_level_.resize(static_cast<size_t>(h_effective));
  tree.arenas_.resize(static_cast<size_t>(h_effective));
  tree.NewNode(1, std::vector<uint64_t>(num_dims, 0));
  tree.Seal();
  return tree;
}

Status CountingTree::Insert(std::span<const double> point) {
  if (point.size() != num_dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  bool in_cube = true;
  for (double v : point) in_cube &= (v >= 0.0) & (v < 1.0);
  if (!in_cube) {
    return Status::InvalidArgument(
        "points must be normalized to [0,1)^d before insertion");
  }
  const size_t words = KeyWords();
  if ((run_.size() + words + 1) * sizeof(uint64_t) > kMaxRunBytes) {
    FlushRun();
  }
  const size_t at = run_.size();
  if (at + words + 1 > run_.capacity()) {
    // Grow by doubling, but never past the cap: the run's memory is
    // bounded by kMaxRunBytes, not just its contents.
    run_.reserve(std::min(std::max(2 * run_.capacity(), 64 * (words + 1)),
                          kMaxRunBytes / sizeof(uint64_t)));
  }
  run_.resize(at + words + 1, 0);  // BuildRun numbers the records.
  DigitKey(point, run_.data() + at);
  return Status::OK();
}

void CountingTree::Seal() {
  if (sealed()) return;
  FlushRun();
  if (!packed_) Pack();
  // A search may have marked cells before the inserts; new cells start
  // unused, so clear everything for the next search.
  ResetUsedFlags();
  DCheckInvariants(*this);
}

void CountingTree::DigitKey(std::span<const double> point,
                            uint64_t* key) const {
  // With g_j = floor(x_j * 2^H), the level-h digit of axis j is bit H - h
  // of g_j, stored at key bit d * (H - h) + j: level 1 on top, the H-th
  // digit (half-space bits of the deepest cell) at the bottom.
  // Multiplying a finite x in [0,1) by 2^H is an exact exponent shift, so
  // g_j holds the coordinate's first H binary digits exactly (and fits an
  // int64_t, H <= 63).
  const size_t d = num_dims_;
  const auto resolutions = static_cast<size_t>(num_resolutions_);
  const double scale = std::ldexp(1.0, num_resolutions_);
  uint64_t grid[kMaxDims + 7] = {};
  for (size_t j = 0; j < d; ++j) {
    grid[j] = static_cast<uint64_t>(static_cast<int64_t>(point[j] * scale));
  }
  // Transposing the d x H bit matrix 8 x 8 bits at a time: byte k of
  // `block` holds bits [8c, 8c + 8) of g_{8m+k}; after Transpose8x8 byte
  // t holds bit 8c + t of g_{8m}..g_{8m+7}, the level digit's 8 bits for
  // axes 8m..8m+7. Padding axes and bits past H are zero.
  for (size_t c = 0; 8 * c < resolutions; ++c) {
    uint64_t rows[(kMaxDims + 7) / 8] = {};
    for (size_t m = 0; 8 * m < d; ++m) {
      uint64_t block = 0;
      for (size_t k = 0; k < 8; ++k) {
        block |= ((grid[8 * m + k] >> (8 * c)) & 0xff) << (8 * k);
      }
      rows[m] = Transpose8x8(block);
    }
    for (size_t t = 8 * c; t < std::min(resolutions, 8 * c + 8); ++t) {
      uint64_t digit = 0;
      for (size_t m = 0; 8 * m < d; ++m) {
        digit |= ((rows[m] >> (8 * (t - 8 * c))) & 0xff) << (8 * m);
      }
      const size_t bit = d * t;
      const unsigned shift = bit & 63;
      key[bit >> 6] |= digit << shift;
      if (shift + d > 64) key[(bit >> 6) + 1] |= digit >> (64 - shift);
    }
  }
}

uint64_t CountingTree::total_points() const {
  return total_points_ + run_.size() / (KeyWords() + 1);
}

size_t CountingTree::KeyWords() const {
  return (num_dims_ * static_cast<size_t>(num_resolutions_) + 63) / 64;
}

void CountingTree::FlushRun() {
  if (run_.empty()) return;
  CountingTree built = BuildRun();
  if (total_points_ == 0) {
    // Nothing counted yet, so no cells: the run's tree is this tree.
    nodes_ = std::move(built.nodes_);
    by_level_ = std::move(built.by_level_);
    arenas_ = std::move(built.arenas_);
    total_points_ = built.total_points_;
    packed_ = true;
    return;
  }
  // Same d and H, sealed, built in creation order: the fold cannot fail.
  const Result<MergeTreeStats> folded = InsertTree(built);
  MRCC_CHECK(folded.ok());
}

CountingTree CountingTree::BuildRun() {
  const size_t d = num_dims_;
  const int resolutions = num_resolutions_;
  const int deepest = resolutions - 1;
  const size_t words = KeyWords();
  const size_t stride = words + 1;
  const size_t points = run_.size() / stride;
  const auto digit_lo = [&](int h) {  // Lowest key bit of level h's digit.
    return d * static_cast<size_t>(resolutions - h);
  };

  // Sort by the digits of levels 1..H-1: then every cell of every level
  // is one contiguous group of records, and LSD stability keeps each
  // group in stream order.
  std::vector<uint64_t> run = std::move(run_);
  run_ = {};
  for (size_t r = 0; r < points; ++r) run[r * stride + words] = r;
  RadixSortRecords(run, stride, words, d, d * static_cast<size_t>(resolutions));
  const auto record = [&](size_t r) { return run.data() + r * stride; };

  // split[r]: the shallowest level at which record r's cell differs from
  // record r - 1's (the highest differing digit bit), H when the two
  // share their deepest cell. Record r opens a new cell at every level
  // from split[r] down, so these also size each level exactly.
  std::vector<uint8_t> split(points);
  std::vector<size_t> cells(static_cast<size_t>(resolutions), 0);
  const uint64_t low_mask = (uint64_t{1} << d) - 1;  // The H-th digit.
  for (size_t r = 0; r < points; ++r) {
    int level = 1;
    if (r > 0) {
      level = resolutions;
      const uint64_t* a = record(r - 1);
      const uint64_t* b = record(r);
      for (size_t w = words; w-- > 0;) {
        const uint64_t diff = (a[w] ^ b[w]) & (w == 0 ? ~low_mask : ~0ull);
        if (diff != 0) {
          const size_t bit =
              64 * w + 63 - static_cast<size_t>(std::countl_zero(diff));
          level = resolutions - static_cast<int>(bit / d);
          break;
        }
      }
    }
    split[r] = static_cast<uint8_t>(level);
    for (int h = level; h <= deepest; ++h) ++cells[static_cast<size_t>(h)];
  }

  // Every level's cells in key order. Record r opens one cell at each
  // level from split[r] down; the deepest level is counted from its
  // records, then each upper level is summed from its children.
  struct KeyOrderLevel {
    std::vector<uint64_t> loc;
    std::vector<uint32_t> n;
    std::vector<uint32_t> first;   // Lowest stream index in the cell.
    std::vector<uint32_t> parent;  // Key-order index one level up.
    std::vector<uint32_t> half;    // d per cell.
  };
  std::vector<KeyOrderLevel> levels(static_cast<size_t>(resolutions));
  for (int h = 1; h <= deepest; ++h) {
    KeyOrderLevel& lv = levels[static_cast<size_t>(h)];
    const size_t count = cells[static_cast<size_t>(h)];
    lv.loc.resize(count);
    lv.n.resize(count);
    lv.first.resize(count, UINT32_MAX);
    lv.parent.resize(count);
    lv.half.resize(count * d);
  }
  KeyOrderLevel& leaf = levels[static_cast<size_t>(deepest)];
  std::vector<uint32_t> opened(static_cast<size_t>(resolutions), 0);
  for (size_t r = 0; r < points; ++r) {
    const uint64_t* rec = record(r);
    for (int h = split[r]; h <= deepest; ++h) {
      const auto hs = static_cast<size_t>(h);
      KeyOrderLevel& lv = levels[hs];
      const uint32_t c = opened[hs]++;
      lv.loc[c] = KeyBits(rec, words, digit_lo(h), static_cast<int>(d));
      lv.parent[c] = h == 1 ? 0 : opened[hs - 1] - 1;
    }
    const uint32_t c = opened[static_cast<size_t>(deepest)] - 1;
    leaf.n[c] += 1;
    // Stable sorting keeps the cell's records in stream order.
    if (leaf.first[c] == UINT32_MAX) {
      leaf.first[c] = static_cast<uint32_t>(rec[words]);
    }
    // The point is in the lower half of its deepest cell along e_j
    // exactly when its H-th digit j is 0.
    const uint64_t lower = ~rec[0] & low_mask;
    uint32_t* half = leaf.half.data() + size_t{c} * d;
    for (size_t j = 0; j < d; ++j) {
      half[j] += static_cast<uint32_t>((lower >> j) & 1);
    }
  }
  run = {};
  split = {};
  for (int h = deepest; h >= 2; --h) {
    const KeyOrderLevel& lv = levels[static_cast<size_t>(h)];
    KeyOrderLevel& up = levels[static_cast<size_t>(h - 1)];
    for (size_t c = 0; c < lv.n.size(); ++c) {
      const uint32_t p = lv.parent[c];
      const uint32_t n = lv.n[c];
      up.n[p] += n;
      up.first[p] = std::min(up.first[p], lv.first[c]);
      // A child whose loc bit j is 0 lies in its parent's lower half.
      const uint64_t lower = ~lv.loc[c];
      uint32_t* half = up.half.data() + size_t{p} * d;
      for (size_t j = 0; j < d; ++j) {
        half[j] += n * static_cast<uint32_t>((lower >> j) & 1);
      }
    }
  }

  // Creation order. The point at a cell's first stream index creates it
  // and, above the deepest level, its child node; a point creates its
  // new cells top-down. So visiting every cell by (first, level) meets
  // nodes in pool order and each node's cells in creation order. Sort
  // (first << 6 | level, level << 32 | key-order index) records.
  size_t total_cells = 0;
  for (size_t count : cells) total_cells += count;
  std::vector<uint64_t> visit;
  visit.reserve(2 * total_cells);
  for (int h = 1; h <= deepest; ++h) {
    const KeyOrderLevel& lv = levels[static_cast<size_t>(h)];
    for (size_t c = 0; c < lv.first.size(); ++c) {
      visit.push_back(uint64_t{lv.first[c]} << 6 | static_cast<uint64_t>(h));
      visit.push_back(static_cast<uint64_t>(h) << 32 | c);
    }
  }
  RadixSortRecords(visit, 2, 1, 0,
                   6 + static_cast<size_t>(std::bit_width(points)));

  CountingTree tree(d, resolutions);
  tree.total_points_ = points;
  tree.by_level_.resize(static_cast<size_t>(resolutions));
  tree.arenas_.resize(static_cast<size_t>(resolutions));
  size_t num_nodes = 1;
  for (int h = 1; h < deepest; ++h) num_nodes += cells[static_cast<size_t>(h)];
  tree.nodes_.resize(num_nodes);
  Node& root = tree.nodes_[0];
  root.base_coords.assign(d, 0);
  root.count = static_cast<uint32_t>(cells[1]);
  tree.by_level_[1].push_back(0);
  for (int h = 2; h <= deepest; ++h) {
    tree.by_level_[static_cast<size_t>(h)].reserve(
        cells[static_cast<size_t>(h - 1)]);
  }

  // Per level: each cell's arena slot, and (above the deepest level) its
  // child node and that node's next free slot.
  std::vector<std::vector<uint32_t>> slot(static_cast<size_t>(resolutions));
  std::vector<std::vector<uint32_t>> node_of(static_cast<size_t>(resolutions));
  std::vector<std::vector<uint32_t>> next_slot(
      static_cast<size_t>(resolutions));
  std::vector<uint32_t> children(static_cast<size_t>(resolutions), 0);
  for (int h = 1; h <= deepest; ++h) {
    const size_t count = cells[static_cast<size_t>(h)];
    slot[static_cast<size_t>(h)].resize(count);
    if (h < deepest) {
      node_of[static_cast<size_t>(h)].resize(count);
      next_slot[static_cast<size_t>(h)].resize(count);
    }
  }
  // Each node's cell count: its parent cell's children in key order.
  std::vector<std::vector<uint32_t>> fanout(static_cast<size_t>(resolutions));
  for (int h = 1; h < deepest; ++h) {
    std::vector<uint32_t>& f = fanout[static_cast<size_t>(h)];
    f.assign(cells[static_cast<size_t>(h)], 0);
    for (uint32_t p : levels[static_cast<size_t>(h + 1)].parent) ++f[p];
  }
  uint32_t root_cells = 0;
  uint32_t next_node = 1;
  for (size_t v = 0; v < visit.size(); v += 2) {
    const auto h = static_cast<int>(visit[v + 1] >> 32);
    const auto c = static_cast<uint32_t>(visit[v + 1]);
    const auto hs = static_cast<size_t>(h);
    const KeyOrderLevel& lv = levels[hs];
    uint32_t owner = 0;
    if (h == 1) {
      slot[1][c] = root_cells++;
    } else {
      const uint32_t parent = lv.parent[c];
      owner = node_of[hs - 1][parent];
      slot[hs][c] = next_slot[hs - 1][parent]++;
    }
    if (h == deepest) continue;
    // The cell's child node: the next node of the pool. Its base is the
    // cell's own coordinates, one level below its owner's base.
    const uint32_t k = next_node++;
    node_of[hs][c] = k;
    Node& node = tree.nodes_[k];
    node.level = h + 1;
    node.first = children[hs + 1];
    node.count = fanout[hs][c];
    children[hs + 1] += node.count;
    next_slot[hs][c] = node.first;
    const std::vector<uint64_t>& base = tree.nodes_[owner].base_coords;
    node.base_coords.resize(d);
    for (size_t j = 0; j < d; ++j) {
      node.base_coords[j] = base[j] * 2 + ((lv.loc[c] >> j) & 1);
    }
    tree.by_level_[hs + 1].push_back(k);
  }
  visit = {};
  fanout = {};
  next_slot = {};

  // Scatter each level's key-order cells to their arena slots.
  for (int h = 1; h <= deepest; ++h) {
    const auto hs = static_cast<size_t>(h);
    KeyOrderLevel& lv = levels[hs];
    const size_t count = cells[hs];
    Arena& arena = tree.arenas_[hs];
    arena.loc.resize(count);
    arena.n.resize(count);
    arena.child.resize(count);
    arena.used.resize(count);
    arena.owner.resize(count);
    arena.half.resize(count * d);
    for (size_t c = 0; c < count; ++c) {
      const uint32_t i = slot[hs][c];
      arena.loc[i] = lv.loc[c];
      arena.n[i] = lv.n[c];
      arena.child[i] =
          h < deepest ? static_cast<int32_t>(node_of[hs][c]) : -1;
      arena.owner[i] = h == 1 ? 0 : node_of[hs - 1][lv.parent[c]];
      std::copy_n(lv.half.data() + c * d, d, arena.half.data() + size_t{i} * d);
    }
    lv = KeyOrderLevel{};
    if (h > 1) node_of[hs - 1] = {};
    slot[hs] = {};
  }
  for (Node& node : tree.nodes_) tree.IndexNode(node);
  tree.packed_ = true;
  DCheckInvariants(tree);
  return tree;
}

Result<MergeTreeStats> CountingTree::InsertTree(const CountingTree& other) {
  if (&other == this) {
    return Status::InvalidArgument("cannot insert a tree into itself");
  }
  if (num_dims_ != other.num_dims_) {
    return Status::InvalidArgument("tree dimensionality mismatch");
  }
  if (num_resolutions_ != other.num_resolutions_) {
    return Status::InvalidArgument("tree resolution mismatch");
  }
  // The walk below reads `other` through its packed slices; an unsealed
  // source's slices are stale and would be misread.
  if (!other.sealed()) {
    return Status::InvalidArgument(
        "source tree is not sealed: call Seal() before inserting it");
  }
  // The walk reaches each source node through its parent cell, so every
  // node must come after its parent in the pool. Built and folded trees
  // always are in that order, but a tree parsed from crafted bytes need
  // not be: check up front, so such a source is rejected before the
  // destination changes.
  {
    std::vector<uint8_t> reached(other.nodes_.size(), 0);
    reached[0] = 1;
    for (size_t m = 0; m < other.nodes_.size(); ++m) {
      if (reached[m] == 0) {
        return Status::Internal("merge source tree is not in creation order");
      }
      const Node& src = other.nodes_[m];
      const int32_t* child =
          other.arenas_[static_cast<size_t>(src.level)].child.data() +
          src.first;
      for (uint32_t c = 0; c < src.count; ++c) {
        if (child[c] < 0) continue;
        if (static_cast<size_t>(child[c]) >= reached.size()) {
          return Status::Internal("merge source tree has a dangling child");
        }
        reached[static_cast<size_t>(child[c])] = 1;
      }
    }
  }

  // Layout-preserving merge: iterate `other`'s node pool in index order —
  // which is creation order, i.e. the order in which `other`'s point
  // stream first touched each region — and only create a missing
  // destination node at the moment its source counterpart is reached.
  // Because a cell and its child node are created by the same point
  // (the first one landing in the cell), this reproduces exactly the node
  // and cell ordering a serial build over the concatenated point streams
  // would have produced; Seal() then restores the canonical arena layout
  // of that serial build. Pack only normalizes layout — it keeps the node
  // pool and each node's cell creation order — so sealing once after N
  // InsertTree calls gives the same bytes as sealing after each. Callers
  // therefore cannot tell a folded tree from a serial build: the trees
  // are identical, not merely equivalent.
  MergeTreeStats stats;
  const size_t d = num_dims_;
  FlushRun();  // This tree's own pending points come first in the stream.
  if (packed_) Unpack();
  // parent_cell[s]: the destination cell (one level above source node s)
  // that s refines, recorded while merging the parent's cells.
  std::vector<uint32_t> parent_cell(other.nodes_.size(), 0);
  for (size_t m = 0; m < other.nodes_.size(); ++m) {
    const Node& src = other.nodes_[m];
    uint32_t dst_node = 0;
    if (m != 0) {
      // Create the destination counterpart only now, when the source pool
      // scan reaches this node, so new destination nodes appear in source
      // creation order (not in parent-cell order). Its base coordinates
      // are the parent cell's absolute coordinates: the same in both trees.
      std::vector<int32_t>& parent_children =
          arenas_[static_cast<size_t>(src.level - 1)].child;
      const uint32_t parent = parent_cell[m];
      if (parent_children[parent] < 0) {
        parent_children[parent] =
            static_cast<int32_t>(NewNode(src.level, src.base_coords));
        ++stats.nodes_created;
      }
      dst_node = static_cast<uint32_t>(parent_children[parent]);
    }
    const Arena& src_arena = other.arenas_[static_cast<size_t>(src.level)];
    Arena& dst_arena = arenas_[static_cast<size_t>(src.level)];
    for (uint32_t c = 0; c < src.count; ++c) {
      const size_t si = static_cast<size_t>(src.first) + c;
      const uint32_t dst_cells_before = nodes_[dst_node].count;
      const uint32_t dst_idx = FindOrCreateInNode(dst_node, src_arena.loc[si]);
      // An unchanged cell count means the cell existed in both trees —
      // a genuine merge (count addition) rather than an append.
      if (nodes_[dst_node].count == dst_cells_before) {
        ++stats.cells_merged;
      } else {
        ++stats.cells_created;
      }
      dst_arena.n[dst_idx] += src_arena.n[si];
      for (size_t j = 0; j < d; ++j) {
        dst_arena.half[static_cast<size_t>(dst_idx) * d + j] +=
            src_arena.half[si * d + j];
      }
      const int32_t src_child = src_arena.child[si];
      if (src_child >= 0) {
        parent_cell[static_cast<size_t>(src_child)] = dst_idx;
      }
    }
  }
  total_points_ += other.total_points_;
  return stats;
}

Result<CountingTree> CountingTree::Build(const Dataset& data,
                                         int num_resolutions) {
  if (!data.InUnitCube()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0,1)^d before building the tree");
  }
  Result<CountingTree> tree = Empty(data.NumDims(), num_resolutions);
  MRCC_RETURN_IF_ERROR(tree.status());
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    MRCC_RETURN_IF_ERROR(tree->Insert(data.Point(i)));
  }
  tree->Seal();
  return tree;
}

int64_t CountingTree::FindInNode(const Node& node, uint64_t loc) const {
  if (node.index != nullptr) return node.index->Find(loc);
  const Arena& arena = arenas_[static_cast<size_t>(node.level)];
  if (packed_) {
    // Packed small node: its locs are one contiguous slice — a vector
    // compare-scan beats any hash below kIndexThreshold entries.
    const int64_t off =
        simd::FindU64(arena.loc.data() + node.first, node.count, loc);
    return off < 0 ? -1 : static_cast<int64_t>(node.first) + off;
  }
  for (uint32_t id : node.cell_ids) {
    if (arena.loc[id] == loc) return static_cast<int64_t>(id);
  }
  return -1;
}

uint32_t CountingTree::FindOrCreateInNode(uint32_t node_idx, uint64_t loc) {
  Node& node = nodes_[node_idx];
  const int64_t existing = FindInNode(node, loc);
  if (existing >= 0) return static_cast<uint32_t>(existing);

  Arena& arena = arenas_[static_cast<size_t>(node.level)];
  const uint32_t cell_idx = static_cast<uint32_t>(arena.size());
  arena.loc.push_back(loc);
  arena.n.push_back(0);
  arena.child.push_back(-1);
  arena.used.push_back(0);
  arena.owner.push_back(node_idx);
  arena.half.resize(arena.half.size() + num_dims_, 0);
  node.cell_ids.push_back(cell_idx);
  node.count += 1;
  if (node.index != nullptr) {
    node.index->Insert(loc, cell_idx);
  } else if (node.count > kIndexThreshold) {
    // The node outgrew linear search: build the loc index now.
    node.index = std::make_unique<LocMap>();
    node.index->Reserve(node.count * 2);
    for (uint32_t id : node.cell_ids) node.index->Insert(arena.loc[id], id);
  }
  return cell_idx;
}

uint32_t CountingTree::NewNode(int level, std::vector<uint64_t> base_coords) {
  const uint32_t idx = static_cast<uint32_t>(nodes_.size());
  Node node;
  node.level = level;
  node.base_coords = std::move(base_coords);
  nodes_.push_back(std::move(node));
  by_level_[static_cast<size_t>(level)].push_back(idx);
  return idx;
}

// ---------------------------------------------------------------------------
// Pack / Unpack: the canonical-order lifecycle (see the header comment).

void CountingTree::Pack() {
  const size_t d = num_dims_;
  std::vector<uint32_t> order;  // order[new index] = old arena index.
  for (int h = 1; h < num_resolutions_; ++h) {
    Arena& arena = arenas_[static_cast<size_t>(h)];
    const size_t n_cells = arena.size();
    order.clear();
    order.reserve(n_cells);
    for (uint32_t node_idx : by_level_[static_cast<size_t>(h)]) {
      Node& node = nodes_[node_idx];
      node.first = static_cast<uint32_t>(order.size());
      for (uint32_t id : node.cell_ids) order.push_back(id);
    }
    MRCC_DCHECK_EQ(order.size(), n_cells);

    Arena packed;
    packed.loc.resize(n_cells);
    packed.n.resize(n_cells);
    packed.child.resize(n_cells);
    packed.used.resize(n_cells);
    packed.owner.resize(n_cells);
    packed.half.resize(n_cells * d);
    for (size_t i = 0; i < n_cells; ++i) {
      const uint32_t src = order[i];
      packed.loc[i] = arena.loc[src];
      packed.n[i] = arena.n[src];
      packed.child[i] = arena.child[src];
      packed.used[i] = arena.used[src];
      packed.owner[i] = arena.owner[src];
      std::memcpy(&packed.half[i * d], &arena.half[static_cast<size_t>(src) * d],
                  d * sizeof(uint32_t));
    }
    arena = std::move(packed);

    // Slices are assigned; drop the per-node id lists and rebuild the loc
    // maps (arena indices changed under them).
    for (uint32_t node_idx : by_level_[static_cast<size_t>(h)]) {
      Node& node = nodes_[node_idx];
      node.cell_ids.Clear();
      IndexNode(node);
    }
  }
  packed_ = true;
}

void CountingTree::IndexNode(Node& node) const {
  if (node.count <= kIndexThreshold) {
    node.index.reset();
    return;
  }
  const Arena& arena = arenas_[static_cast<size_t>(node.level)];
  node.index = std::make_unique<LocMap>();
  node.index->Reserve(node.count * 2);
  for (uint32_t i = 0; i < node.count; ++i) {
    node.index->Insert(arena.loc[node.first + i], node.first + i);
  }
}

void CountingTree::Unpack() {
  for (Node& node : nodes_) {
    node.cell_ids.AssignIota(node.first, node.count);
    // Arena indices are unchanged, so any loc index stays valid.
  }
  packed_ = false;
}

// ---------------------------------------------------------------------------
// Read API.

CountingTree::LevelView CountingTree::Level(int h) const {
  MRCC_DCHECK(sealed());
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return LevelView(this, h);
}

size_t CountingTree::LevelView::num_cells() const {
  return tree_->arenas_[static_cast<size_t>(level_)].size();
}

size_t CountingTree::LevelView::num_dims() const { return tree_->num_dims_; }

std::span<const uint64_t> CountingTree::LevelView::locs() const {
  return tree_->arenas_[static_cast<size_t>(level_)].loc;
}

std::span<const uint32_t> CountingTree::LevelView::counts() const {
  return tree_->arenas_[static_cast<size_t>(level_)].n;
}

std::span<const int32_t> CountingTree::LevelView::children() const {
  return tree_->arenas_[static_cast<size_t>(level_)].child;
}

std::span<const uint8_t> CountingTree::LevelView::used() const {
  return tree_->arenas_[static_cast<size_t>(level_)].used;
}

std::span<const uint32_t> CountingTree::LevelView::half() const {
  return tree_->arenas_[static_cast<size_t>(level_)].half;
}

std::span<const uint32_t> CountingTree::LevelView::half_of(uint32_t i) const {
  const size_t d = tree_->num_dims_;
  return std::span<const uint32_t>(
      tree_->arenas_[static_cast<size_t>(level_)].half.data() + i * d, d);
}

void CountingTree::LevelView::CoordsInto(uint32_t i, uint64_t* out) const {
  const Arena& arena = tree_->arenas_[static_cast<size_t>(level_)];
  const Node& node = tree_->nodes_[arena.owner[i]];
  const uint64_t loc = arena.loc[i];
  const size_t d = tree_->num_dims_;
  for (size_t j = 0; j < d; ++j) {
    out[j] = node.base_coords[j] * 2 + ((loc >> j) & 1);
  }
}

std::vector<uint64_t> CountingTree::LevelView::Coords(uint32_t i) const {
  std::vector<uint64_t> coords(tree_->num_dims_);
  CoordsInto(i, coords.data());
  return coords;
}

bool CountingTree::LevelView::AtOffset(uint32_t a, uint32_t b,
                                      const uint64_t* offset) const {
  const Arena& arena = tree_->arenas_[static_cast<size_t>(level_)];
  const uint64_t loc_a = arena.loc[a];
  const uint64_t loc_b = arena.loc[b];
  const size_t d = tree_->num_dims_;
  if (arena.owner[a] == arena.owner[b]) {  // Same base: loc bits decide.
    for (size_t j = 0; j < d; ++j) {
      if (((loc_b >> j) & 1) != ((loc_a >> j) & 1) + offset[j]) return false;
    }
    return true;
  }
  const uint64_t* base_a = tree_->nodes_[arena.owner[a]].base_coords.data();
  const uint64_t* base_b = tree_->nodes_[arena.owner[b]].base_coords.data();
  for (size_t j = 0; j < d; ++j) {
    if (base_b[j] * 2 + ((loc_b >> j) & 1) !=
        base_a[j] * 2 + ((loc_a >> j) & 1) + offset[j]) {
      return false;
    }
  }
  return true;
}

size_t CountingTree::NumCellsAtLevel(int h) const {
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return arenas_[static_cast<size_t>(h)].size();
}

uint32_t CountingTree::Count(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].n[ref.index];
}

uint64_t CountingTree::Loc(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].loc[ref.index];
}

int32_t CountingTree::Child(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].child[ref.index];
}

bool CountingTree::Used(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].used[ref.index] != 0;
}

void CountingTree::SetUsed(CellRef ref, bool used) {
  arenas_[static_cast<size_t>(ref.level)].used[ref.index] = used ? 1 : 0;
}

uint32_t CountingTree::HalfCount(CellRef ref, size_t axis) const {
  MRCC_DCHECK_LT(axis, num_dims_);
  return arenas_[static_cast<size_t>(ref.level)]
      .half[ref.index * num_dims_ + axis];
}

std::vector<uint64_t> CountingTree::CellCoords(CellRef ref) const {
  return Level(ref.level).Coords(ref.index);
}

bool CountingTree::FindCell(int level, const std::vector<uint64_t>& coords,
                            CellRef* ref) const {
  MRCC_DCHECK_GE(level, 1);
  MRCC_DCHECK_LT(level, num_resolutions_);
  MRCC_DCHECK_EQ(coords.size(), num_dims_);
  uint32_t node_idx = 0;
  for (int l = 1; l <= level; ++l) {
    // Position bits of the level-l ancestor inside its parent.
    uint64_t loc = 0;
    const int shift = level - l;
    for (size_t j = 0; j < num_dims_; ++j) {
      loc |= ((coords[j] >> shift) & 1) << j;
    }
    const Node& node = nodes_[node_idx];
    const int64_t cell_idx = FindInNode(node, loc);
    if (cell_idx < 0) return false;
    if (l == level) {
      ref->level = level;
      ref->index = static_cast<uint32_t>(cell_idx);
      return true;
    }
    const int32_t child =
        arenas_[static_cast<size_t>(l)].child[static_cast<size_t>(cell_idx)];
    if (child < 0) return false;
    node_idx = static_cast<uint32_t>(child);
  }
  return false;  // Unreachable.
}

bool CountingTree::FaceNeighbor(int level,
                                const std::vector<uint64_t>& coords,
                                size_t axis, int dir, CellRef* ref) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  MRCC_DCHECK_LT(axis, num_dims_);
  const uint64_t max_coord = (uint64_t{1} << level) - 1;
  if (dir < 0 && coords[axis] == 0) return false;
  if (dir > 0 && coords[axis] == max_coord) return false;
  std::vector<uint64_t> neighbor = coords;
  neighbor[axis] += static_cast<uint64_t>(dir);
  return FindCell(level, neighbor, ref);
}

uint32_t CountingTree::FaceNeighborCount(int level,
                                         const std::vector<uint64_t>& coords,
                                         size_t axis, int dir) const {
  CellRef ref;
  return FaceNeighbor(level, coords, axis, dir, &ref) ? Count(ref) : 0;
}

void CountingTree::ResetUsedFlags() {
  for (Arena& arena : arenas_) {
    std::fill(arena.used.begin(), arena.used.end(), uint8_t{0});
  }
}

Status CountingTree::DropDeepestLevel() {
  const int deepest = num_resolutions_ - 1;
  if (deepest <= 2) {
    return Status::InvalidArgument(
        "cannot drop below the paper's minimum of H = 3 resolutions");
  }
  MRCC_DCHECK(sealed());
  // Unlink the dropped level from its parent cells, then drop its arena
  // and compact the node pool. Compaction preserves relative order and
  // the surviving arenas are untouched, so the result has exactly the
  // layout a build with the smaller H would have produced — which keeps
  // every downstream stage bit-identical to that build.
  std::fill(arenas_[static_cast<size_t>(deepest - 1)].child.begin(),
            arenas_[static_cast<size_t>(deepest - 1)].child.end(),
            int32_t{-1});
  arenas_.pop_back();

  std::vector<int32_t> remap(nodes_.size(), -1);
  std::vector<Node> kept;
  kept.reserve(nodes_.size() - by_level_[static_cast<size_t>(deepest)].size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].level >= deepest) continue;
    remap[i] = static_cast<int32_t>(kept.size());
    kept.push_back(std::move(nodes_[i]));
  }
  nodes_ = std::move(kept);
  for (int h = 1; h < deepest; ++h) {
    Arena& arena = arenas_[static_cast<size_t>(h)];
    for (uint32_t& owner : arena.owner) {
      owner = static_cast<uint32_t>(remap[owner]);
    }
    for (int32_t& child : arena.child) {
      if (child >= 0) {
        child = remap[static_cast<size_t>(child)];
        MRCC_DCHECK_GE(child, 0);
      }
    }
  }
  by_level_.pop_back();
  for (std::vector<uint32_t>& level : by_level_) {
    for (uint32_t& idx : level) {
      idx = static_cast<uint32_t>(remap[idx]);
    }
  }
  --num_resolutions_;
  DCheckInvariants(*this);
  return Status::OK();
}

Status CountingTree::ValidateInvariants() const {
  const auto fail = [](std::string msg) {
    return Status::Internal("tree invariant violated: " + std::move(msg));
  };
  const size_t d = num_dims_;
  if (d == 0 || d > kMaxDims) return fail("dimensionality out of range");
  if (num_resolutions_ < 3) return fail("fewer than 3 resolutions");
  if (nodes_.empty()) return fail("no root node");
  if (!packed_) return fail("tree is not packed");
  if (by_level_.size() != static_cast<size_t>(num_resolutions_)) {
    return fail("by-level index has wrong resolution count");
  }
  if (arenas_.size() != static_cast<size_t>(num_resolutions_)) {
    return fail("arena vector has wrong resolution count");
  }

  const Node& root = nodes_[0];
  if (root.level != 1) return fail("root node is not at level 1");
  for (uint64_t c : root.base_coords) {
    if (c != 0) return fail("root base coordinates are not zero");
  }

  // Arena array-size agreement, and slice partitioning: the nodes of each
  // level must tile its arena contiguously, in by-level order — that is
  // the canonical enumeration order everything downstream relies on.
  for (int h = 1; h < num_resolutions_; ++h) {
    const Arena& arena = arenas_[static_cast<size_t>(h)];
    // Message prefixes are built on the failure path only: this walk runs
    // on every tree load, and the passing case must not allocate per
    // level, node or cell.
    const auto where = [h] { return "level " + std::to_string(h) + ": "; };
    const size_t n_cells = arena.loc.size();
    if (arena.n.size() != n_cells || arena.child.size() != n_cells ||
        arena.used.size() != n_cells || arena.owner.size() != n_cells ||
        arena.half.size() != n_cells * d) {
      return fail(where() + "arena arrays disagree on cell count");
    }
    size_t running = 0;
    for (uint32_t node_idx : by_level_[static_cast<size_t>(h)]) {
      const Node& node = nodes_[node_idx];
      if (node.first != running) {
        return fail(where() + "node " + std::to_string(node_idx) +
                    " slice does not start where the previous slice ended");
      }
      running += node.count;
    }
    if (running != n_cells) {
      return fail(where() + "node slices cover " + std::to_string(running) +
                  " cells, arena holds " + std::to_string(n_cells));
    }
  }

  // parent_refs[m]: number of cells pointing at node m as their child.
  std::vector<uint32_t> parent_refs(nodes_.size(), 0);
  uint64_t root_points = 0;
  SiblingLocSet locs;
  for (size_t m = 0; m < nodes_.size(); ++m) {
    const Node& node = nodes_[m];
    const auto where = [m] { return "node " + std::to_string(m) + ": "; };
    if (node.level < 1 || node.level >= num_resolutions_) {
      return fail(where() + "level " + std::to_string(node.level) +
                  " out of range");
    }
    if (node.base_coords.size() != d) {
      return fail(where() + "base coordinate dimensionality mismatch");
    }
    const uint64_t max_base = uint64_t{1} << (node.level - 1);
    for (uint64_t c : node.base_coords) {
      if (c >= max_base) return fail(where() + "base coordinate out of range");
    }
    const Arena& arena = arenas_[static_cast<size_t>(node.level)];
    if (static_cast<size_t>(node.first) + node.count > arena.size()) {
      return fail(where() + "cell slice exceeds the level arena");
    }
    locs.Reset(node.count);
    for (uint32_t c = 0; c < node.count; ++c) {
      const uint32_t i = node.first + c;
      const auto cell_where = [&where, c] {
        return where() + "cell " + std::to_string(c) + ": ";
      };
      if (arena.owner[i] != m) {
        return fail(cell_where() + "arena owner points at node " +
                    std::to_string(arena.owner[i]));
      }
      const uint64_t loc = arena.loc[i];
      if (d < 64 && (loc >> d) != 0) {
        return fail(cell_where() + "loc has bits above dimension " +
                    std::to_string(d));
      }
      if (!locs.Insert(loc)) {
        return fail(cell_where() + "duplicate loc among siblings");
      }
      const uint32_t n = arena.n[i];
      if (n == 0) return fail(cell_where() + "materialized cell is empty");
      for (size_t j = 0; j < d; ++j) {
        if (arena.half[i * d + j] > n) {
          return fail(cell_where() + "half-space count " +
                      std::to_string(arena.half[i * d + j]) +
                      " exceeds cell count " + std::to_string(n) +
                      " on axis " + std::to_string(j));
        }
      }
      const int32_t child_node = arena.child[i];
      if (child_node >= 0) {
        const auto child_idx = static_cast<size_t>(child_node);
        if (child_idx >= nodes_.size()) {
          return fail(cell_where() + "dangling child pointer");
        }
        if (child_idx == 0) return fail(cell_where() + "root used as child");
        const Node& child = nodes_[child_idx];
        if (child.level != node.level + 1) {
          return fail(cell_where() + "child level is not parent level + 1");
        }
        bool coords_match = child.base_coords.size() == d;
        for (size_t j = 0; coords_match && j < d; ++j) {
          coords_match =
              child.base_coords[j] == node.base_coords[j] * 2 + ((loc >> j) & 1);
        }
        if (!coords_match) {
          return fail(cell_where() + "child base coordinates do not match");
        }
        const Arena& child_arena =
            arenas_[static_cast<size_t>(child.level)];
        const uint64_t child_sum =
            simd::SumU32(child_arena.n.data() + child.first, child.count);
        if (child_sum != n) {
          return fail(cell_where() + "child counts sum to " +
                      std::to_string(child_sum) + ", expected " +
                      std::to_string(n));
        }
        parent_refs[child_idx] += 1;
      }
      if (m == 0) root_points += n;
    }
  }
  for (size_t m = 1; m < nodes_.size(); ++m) {
    if (parent_refs[m] != 1) {
      return fail("node " + std::to_string(m) + " referenced by " +
                  std::to_string(parent_refs[m]) + " parent cells");
    }
  }
  if (root_points != total_points_) {
    return fail("root counts sum to " + std::to_string(root_points) +
                ", total_points is " + std::to_string(total_points_));
  }

  // Every node must be registered exactly once, at its own level.
  std::vector<uint32_t> level_refs(nodes_.size(), 0);
  for (size_t h = 0; h < by_level_.size(); ++h) {
    for (uint32_t idx : by_level_[h]) {
      if (idx >= nodes_.size()) return fail("by-level index out of range");
      if (nodes_[idx].level != static_cast<int>(h)) {
        return fail("node " + std::to_string(idx) +
                    " registered at the wrong level");
      }
      level_refs[idx] += 1;
    }
  }
  for (size_t m = 0; m < nodes_.size(); ++m) {
    if (level_refs[m] != 1) {
      return fail("node " + std::to_string(m) + " appears " +
                  std::to_string(level_refs[m]) + " times in by-level index");
    }
  }
  return Status::OK();
}

size_t CountingTree::MemoryBytes() const {
  size_t bytes = sizeof(*this) + nodes_.size() * sizeof(Node) +
                 run_.capacity() * sizeof(uint64_t);
  for (const Node& node : nodes_) {
    bytes += node.base_coords.capacity() * sizeof(uint64_t);
    bytes += node.cell_ids.HeapBytes();
    if (node.index != nullptr) {
      bytes += sizeof(LocMap) + node.index->MemoryBytes();
    }
  }
  for (const Arena& arena : arenas_) {
    bytes += arena.loc.capacity() * sizeof(uint64_t);
    bytes += arena.n.capacity() * sizeof(uint32_t);
    bytes += arena.child.capacity() * sizeof(int32_t);
    bytes += arena.used.capacity() * sizeof(uint8_t);
    bytes += arena.owner.capacity() * sizeof(uint32_t);
    bytes += arena.half.capacity() * sizeof(uint32_t);
  }
  for (const auto& level : by_level_) {
    bytes += level.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mrcc

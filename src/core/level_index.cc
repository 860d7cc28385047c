#include "core/level_index.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace mrcc {
namespace {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// The tag bits of hash `h` in a slot whose low bits hold the cell index
// (masked by `cell_mask`): the top bits of h's high half.
inline uint32_t Tag(uint64_t h, uint32_t cell_mask) {
  return static_cast<uint32_t>(h >> 32) & ~cell_mask;
}

}  // namespace

LevelIndex::LevelIndex(const CountingTree::LevelView& view)
    : level_(view.level()),
      num_dims_(view.num_dims()),
      max_coord_((uint64_t{1} << view.level()) - 1),
      axis_keys_(view.num_dims()),
      cell_mask_(static_cast<uint32_t>(
          (uint64_t{1} << std::bit_width(uint64_t{view.num_cells()})) - 1)) {
  // Fixed per-axis steps: Mix64 of a Weyl sequence, forced odd.
  for (size_t j = 0; j < num_dims_; ++j) {
    axis_keys_[j] = Mix64((j + 1) * 0x9e3779b97f4a7c15ull) | 1;
  }
  const size_t n_cells = view.num_cells();
  coords_.resize(n_cells * num_dims_);
  for (uint32_t i = 0; i < n_cells; ++i) {
    view.CoordsInto(i, coords_.data() + static_cast<size_t>(i) * num_dims_);
  }
  size_t cap = 16;
  while (cap < n_cells * 2) cap <<= 1;
  slots_.assign(cap, kEmptySlot);
  const size_t mask = cap - 1;
  for (uint32_t i = 0; i < n_cells; ++i) {
    const uint64_t h = Mix64(Key(CellCoords(i)));
    size_t s = h & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = Tag(h, cell_mask_) | i;
  }
}

uint64_t LevelIndex::Key(const uint64_t* coords) const {
  uint64_t k = static_cast<uint64_t>(level_);
  for (size_t j = 0; j < num_dims_; ++j) k += coords[j] * axis_keys_[j];
  return k;
}

template <typename Matches>
int64_t LevelIndex::Probe(uint64_t key, Matches matches) const {
  const uint64_t h = Mix64(key);
  const uint32_t tag = Tag(h, cell_mask_);
  const size_t mask = slots_.size() - 1;
  for (size_t s = h & mask; slots_[s] != kEmptySlot; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if ((slot & ~cell_mask_) == tag && matches(slot & cell_mask_)) {
      return static_cast<int64_t>(slot & cell_mask_);
    }
  }
  return -1;
}

int64_t LevelIndex::FindKeyed(const uint64_t* coords, uint64_t key) const {
  MRCC_DCHECK_EQ(key, Key(coords));
  return Probe(key, [&](uint32_t cell) {
    return std::memcmp(CellCoords(cell), coords,
                       num_dims_ * sizeof(uint64_t)) == 0;
  });
}

int64_t LevelIndex::FindStep(const uint64_t* center, uint64_t key,
                             size_t axis, int dir) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  const uint64_t c = center[axis];
  if (dir < 0 ? c == 0 : c == max_coord_) return -1;  // Off the cube.
  const uint64_t step = static_cast<uint64_t>(static_cast<int64_t>(dir));
  const uint64_t value = c + step;
  return Probe(key + step * axis_keys_[axis], [&](uint32_t cell) {
    const uint64_t* row = CellCoords(cell);
    return row[axis] == value &&
           std::memcmp(row, center, axis * sizeof(uint64_t)) == 0 &&
           std::memcmp(row + axis + 1, center + axis + 1,
                       (num_dims_ - axis - 1) * sizeof(uint64_t)) == 0;
  });
}

int64_t LevelIndex::FindFaceNeighbor(const uint64_t* coords, size_t axis,
                                     int dir) const {
  return FindStep(coords, Key(coords), axis, dir);
}

int64_t LevelIndex::FaceNeighborSum(uint32_t cell,
                                    const uint32_t* counts) const {
  const uint64_t* center = CellCoords(cell);
  const uint64_t key = Key(center);
  int64_t sum = 0;
  for (size_t j = 0; j < num_dims_; ++j) {
    for (int dir : {-1, +1}) {
      const int64_t neighbor = FindStep(center, key, j, dir);
      if (neighbor >= 0) sum += counts[neighbor];
    }
  }
  return sum;
}

size_t LevelIndex::MemoryBytes() const {
  return sizeof(*this) + axis_keys_.capacity() * sizeof(uint64_t) +
         coords_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(uint32_t);
}

}  // namespace mrcc

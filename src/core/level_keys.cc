#include "core/level_keys.h"

#include <bit>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace mrcc {
namespace {

// Fixed, odd per-axis steps K_j.
std::vector<uint64_t> DefaultAxisKeys(size_t d) {
  Rng rng(0x9e3779b97f4a7c15ull);
  std::vector<uint64_t> axis_keys(d);
  for (uint64_t& k : axis_keys) k = rng.Next() | 1;
  return axis_keys;
}

}  // namespace

LevelKeys::LevelKeys(const CountingTree::LevelView& view)
    : LevelKeys(view, DefaultAxisKeys(view.num_dims())) {}

LevelKeys::LevelKeys(const CountingTree::LevelView& view,
                     std::vector<uint64_t> axis_keys)
    : view_(view), axis_keys_(std::move(axis_keys)) {
  const size_t n = view.num_cells();
  // (key, cell) pairs: ordered by key, then by arena index.
  std::vector<std::pair<uint64_t, uint32_t>> unsorted(n), sorted(n);
  uint64_t coords[CountingTree::kMaxDims];
  for (uint32_t i = 0; i < n; ++i) {
    view.CoordsInto(i, coords);
    unsorted[i] = {Key(coords), i};
  }
  // One bucket pass on the keys' top bits — about one cell per bucket,
  // since keys spread over all 2^64 values — then each bucket sorted.
  const int bits = std::max(1, static_cast<int>(std::bit_width(n)));
  const auto bucket = [&](uint64_t key) { return key >> (64 - bits); };
  std::vector<uint32_t> end((size_t{1} << bits) + 1, 0);
  for (const auto& e : unsorted) ++end[bucket(e.first) + 1];
  for (size_t b = 1; b < end.size(); ++b) end[b] += end[b - 1];
  for (const auto& e : unsorted) sorted[end[bucket(e.first)]++] = e;
  for (size_t b = 0, begin = 0; b + 1 < end.size(); begin = end[b++]) {
    std::sort(sorted.begin() + begin, sorted.begin() + end[b]);
  }
  keys_.resize(n);
  cells_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keys_[i] = sorted[i].first;
    cells_[i] = sorted[i].second;
  }
}

uint64_t LevelKeys::Key(const uint64_t* coords) const {
  return std::inner_product(axis_keys_.begin(), axis_keys_.end(), coords,
                            static_cast<uint64_t>(view_.level()));
}

int64_t LevelKeys::Find(const uint64_t* coords) const {
  const uint64_t key = Key(coords);
  // Keys spread evenly over 2^64, so key·n/2^64 is close to the key's
  // rank: gallop out from there to bracket it, then binary search.
  const size_t n = keys_.size();
  size_t lo = ((key >> 32) * n) >> 32, hi = lo, step = 1;
  while (lo > 0 && keys_[lo] >= key) lo -= std::min(lo, step *= 2);
  step = 1;
  while (hi < n && keys_[hi] < key) hi = std::min(n, hi + (step *= 2));
  uint64_t found[CountingTree::kMaxDims];
  for (auto it = std::lower_bound(keys_.begin() + lo, keys_.begin() + hi, key);
       it != keys_.end() && *it == key; ++it) {
    const uint32_t cell = cells_[static_cast<size_t>(it - keys_.begin())];
    view_.CoordsInto(cell, found);
    if (std::equal(found, found + axis_keys_.size(), coords)) return cell;
  }
  return -1;
}

int64_t LevelKeys::FindFaceNeighbor(const uint64_t* coords, size_t axis,
                                    int dir) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  const uint64_t max_coord = (uint64_t{1} << view_.level()) - 1;
  if (dir < 0 ? coords[axis] == 0 : coords[axis] == max_coord) return -1;
  uint64_t neighbor[CountingTree::kMaxDims];
  std::copy(coords, coords + axis_keys_.size(), neighbor);
  neighbor[axis] += static_cast<uint64_t>(static_cast<int64_t>(dir));
  return Find(neighbor);
}

}  // namespace mrcc

// The Counting-tree's cells as the paper defines them (§III-A), for tests:
// one map per level from integer cell coordinates to the cell's count n
// and half-space counts P[j], built straight from the points. A point x
// lies in level-h cell floor(x * 2^h) on every axis, and in the lower
// half of it along e_j when its level-(h+1) coordinate on e_j is even.
// Nothing here reads a CountingTree: no node arenas, locs, keys or
// layout, so a test that checks the engine against the grid shares no
// code with what it checks. The grid answers "which cell is here", "which
// cell is the face neighbour" and the Laplacian responses of Fig. 2 as
// the plain sum of mask weight times count over the offsets {-1, 0, 1}^d.

#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace mrcc {
namespace testing {

/// Levels 1..H-1 of a Counting-tree as coordinate-keyed maps.
class ReferenceGrid {
 public:
  using Coords = std::vector<uint64_t>;

  struct Cell {
    uint32_t n = 0;
    std::vector<uint32_t> lower;  // P[j]: points in the lower half on e_j.
  };

  /// The grid of `data`'s points at `num_resolutions` = H resolutions.
  /// Points must lie in [0,1)^d and H must be at most 63, so that every
  /// coordinate fits a uint64_t.
  ReferenceGrid(const Dataset& data, int num_resolutions)
      : d_(data.NumDims()),
        resolutions_(num_resolutions),
        levels_(static_cast<size_t>(num_resolutions)) {
    for (size_t i = 0; i < data.NumPoints(); ++i) Add(data.Point(i));
  }

  size_t num_dims() const { return d_; }
  int num_resolutions() const { return resolutions_; }

  /// Every populated cell of level h (1 <= h < H), by coordinates.
  const std::map<Coords, Cell>& Level(int h) const {
    return levels_[static_cast<size_t>(h)];
  }

  /// The cell at `coords` on level h, or null where no point lies.
  const Cell* Find(int h, const Coords& coords) const {
    const auto it = Level(h).find(coords);
    return it == Level(h).end() ? nullptr : &it->second;
  }

  /// Points in the cell at `coords` on level h (0 for an empty cell).
  uint32_t Count(int h, const Coords& coords) const {
    const Cell* cell = Find(h, coords);
    return cell == nullptr ? 0 : cell->n;
  }

  /// The coordinates of the face neighbour of `coords` along e_axis in
  /// direction `dir` (-1 or +1): false where it would leave the cube.
  static bool FaceNeighbor(int h, const Coords& coords, size_t axis, int dir,
                           Coords* neighbor) {
    if (dir < 0 && coords[axis] == 0) return false;
    if (dir > 0 && coords[axis] == (uint64_t{1} << h) - 1) return false;
    *neighbor = coords;
    (*neighbor)[axis] += static_cast<uint64_t>(dir);
    return true;
  }

  /// Weight of the offset `o` in {-1, 0, 1}^d in the paper's Fig. 2
  /// masks. Full mask (2a): 3^d - 1 at the centre, -1 everywhere else.
  /// Face mask (2b): 2d at the centre, -1 on the 2d face elements (one
  /// nonzero entry), 0 on the corners.
  static int64_t MaskWeight(std::span<const int> o, bool full_mask) {
    size_t nonzero = 0;
    for (int v : o) nonzero += v != 0;
    if (full_mask) {
      int64_t cells = 1;
      for (size_t j = 0; j < o.size(); ++j) cells *= 3;
      return nonzero == 0 ? cells - 1 : -1;
    }
    if (nonzero == 0) return 2 * static_cast<int64_t>(o.size());
    return nonzero == 1 ? -1 : 0;
  }

  /// The offsets {-1, 0, 1}^d in odometer order (last axis fastest), or
  /// for the face mask at d > kMaxDenseDims only the centre and the 2d
  /// faces: every other offset has face-mask weight 0, and 3^d of them
  /// cannot be listed at large d.
  static std::vector<std::vector<int>> Offsets(size_t d, bool full_mask) {
    std::vector<std::vector<int>> offsets;
    if (!full_mask && d > kMaxDenseDims) {
      offsets.emplace_back(d, 0);
      for (size_t j = 0; j < d; ++j) {
        for (int dir : {-1, +1}) {
          offsets.emplace_back(d, 0);
          offsets.back()[j] = dir;
        }
      }
      return offsets;
    }
    std::vector<int> o(d, -1);
    while (true) {
      offsets.push_back(o);
      size_t j = d;
      while (j > 0 && o[j - 1] == 1) o[--j] = -1;
      if (j == 0) return offsets;
      ++o[j - 1];
    }
  }

  /// The Laplacian response of the cell at `coords` on level h: the sum
  /// over the offsets o of MaskWeight(o) * Count(coords + o), where cells
  /// outside the cube count 0.
  int64_t Response(int h, const Coords& coords, bool full_mask) const {
    const uint64_t side = uint64_t{1} << h;
    int64_t sum = 0;
    Coords probe(d_);
    for (const std::vector<int>& o : Offsets(d_, full_mask)) {
      const int64_t weight = MaskWeight(o, full_mask);
      if (weight == 0) continue;
      bool inside = true;
      for (size_t j = 0; j < d_ && inside; ++j) {
        probe[j] = coords[j] + static_cast<uint64_t>(o[j]);
        inside = probe[j] < side;  // -1 past 0 wraps above the side.
      }
      if (inside) sum += weight * static_cast<int64_t>(Count(h, probe));
    }
    return sum;
  }

  /// Largest d at which Offsets lists the face mask's zero weights too.
  static constexpr size_t kMaxDenseDims = 8;

 private:
  void Add(std::span<const double> point) {
    // cell[j] = floor(x_j * 2^H); dropping the low bits gives every
    // shallower level's coordinate. Scaling by a power of two is exact.
    Coords finest(d_);
    for (size_t j = 0; j < d_; ++j) {
      finest[j] = static_cast<uint64_t>(std::ldexp(point[j], resolutions_));
    }
    for (int h = 1; h < resolutions_; ++h) {
      Coords coords(d_);
      for (size_t j = 0; j < d_; ++j) {
        coords[j] = finest[j] >> (resolutions_ - h);
      }
      Cell& cell = levels_[static_cast<size_t>(h)][coords];
      if (cell.lower.empty()) cell.lower.assign(d_, 0);
      ++cell.n;
      for (size_t j = 0; j < d_; ++j) {
        // The level-(h+1) coordinate's last bit: 0 in the lower half.
        if (((finest[j] >> (resolutions_ - h - 1)) & 1) == 0) {
          ++cell.lower[j];
        }
      }
    }
  }

  size_t d_;
  int resolutions_;
  std::vector<std::map<Coords, Cell>> levels_;  // levels_[h], h >= 1.
};

}  // namespace testing
}  // namespace mrcc

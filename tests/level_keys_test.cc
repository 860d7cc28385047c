// Differential tests of LevelKeys and the merge-join convolution against
// a grid built straight from the points (reference_grid.h: cell lookups,
// face neighbours and dense-mask Laplacian sums) on seeded random trees,
// from d = 1 up to the d = 62 ceiling, at several thread counts, and with
// every axis key forced equal so that distinct cells collide.

#include "core/level_keys.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/counting_tree.h"
#include "core/laplacian_mask.h"
#include "data/dataset.h"
#include "reference_grid.h"

namespace mrcc {
namespace {

struct Shape {
  size_t d;
  int h;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (size_t d : {1, 2, 14, 30, 62}) {
    for (int h : {3, 5}) shapes.push_back({d, h});
  }
  return shapes;
}

// Points in finest-grid cells (G = 2^(H-1) per axis) clustered so that
// face neighbors exist at every level: each seed cell is emitted together
// with a few copies shifted by one cell along a random axis. One point
// sits in the all-zero corner and one in the all-max corner, so border
// coordinates 0 and 2^h - 1 occur on every axis. No point has
// x_0 in [0.5, 0.75): that slab is the guaranteed-empty region.
Dataset ClusteredGridData(size_t d, int num_resolutions, uint64_t seed) {
  const uint64_t grid = uint64_t{1} << (num_resolutions - 1);
  const auto in_slab = [&](uint64_t c0) {
    return c0 >= grid / 2 && c0 < grid / 2 + grid / 4;
  };
  Rng rng(seed);
  Dataset data(0, d);
  const auto emit = [&](const std::vector<uint64_t>& cell) {
    std::vector<double> point(d);
    for (size_t j = 0; j < d; ++j) {
      point[j] = (static_cast<double>(cell[j]) + rng.Uniform(0.05, 0.95)) /
                 static_cast<double>(grid);
    }
    data.AppendPoint(point);
  };
  emit(std::vector<uint64_t>(d, 0));
  emit(std::vector<uint64_t>(d, grid - 1));
  for (int s = 0; s < 150; ++s) {
    std::vector<uint64_t> base(d);
    for (size_t j = 0; j < d; ++j) base[j] = rng.UniformInt(grid);
    if (in_slab(base[0])) base[0] = 0;
    emit(base);
    for (int k = 0; k < 4; ++k) {
      std::vector<uint64_t> shifted = base;
      const size_t axis = rng.UniformInt(d);
      if (rng.Bernoulli(0.5)) {
        if (shifted[axis] == 0) continue;
        --shifted[axis];
      } else {
        if (shifted[axis] == grid - 1) continue;
        ++shifted[axis];
      }
      if (in_slab(shifted[0])) continue;
      emit(shifted);
    }
  }
  return data;
}

using testing::ReferenceGrid;

using Coords = std::vector<uint64_t>;

// The arena index of each of the level's cells by coordinates, checked
// to hold exactly the grid's populated cells with the grid's counts.
std::map<Coords, int64_t> IndexOfGridCells(
    const ReferenceGrid& grid, const CountingTree::LevelView& level) {
  std::map<Coords, int64_t> index;
  for (uint32_t i = 0; i < level.num_cells(); ++i) index[level.Coords(i)] = i;
  EXPECT_EQ(index.size(), grid.Level(level.level()).size());
  for (const auto& [coords, cell] : grid.Level(level.level())) {
    const auto it = index.find(coords);
    if (it == index.end()) {
      ADD_FAILURE() << "the tree lacks a cell the grid holds";
      continue;
    }
    EXPECT_EQ(level.counts()[static_cast<size_t>(it->second)], cell.n);
  }
  return index;
}

// The arena index LevelKeys must return for `coords`: the cell's where
// the grid holds points, else -1.
int64_t Expected(const ReferenceGrid& grid,
                 const std::map<Coords, int64_t>& index, int h,
                 const Coords& coords) {
  return grid.Find(h, coords) == nullptr ? -1 : index.at(coords);
}

// The grid's face-neighbour index of `coords` along `axis`, `dir`.
int64_t ExpectedFaceNeighbor(const ReferenceGrid& grid,
                             const std::map<Coords, int64_t>& index, int h,
                             const Coords& coords, size_t axis, int dir) {
  Coords neighbor;
  if (!ReferenceGrid::FaceNeighbor(h, coords, axis, dir, &neighbor)) {
    return -1;
  }
  return Expected(grid, index, h, neighbor);
}

// Σ of the face neighbours' counts on the grid.
int64_t GridFaceNeighborSum(const ReferenceGrid& grid, int h,
                            const Coords& coords) {
  int64_t sum = 0;
  Coords neighbor;
  for (size_t j = 0; j < grid.num_dims(); ++j) {
    for (int dir : {-1, +1}) {
      if (ReferenceGrid::FaceNeighbor(h, coords, j, dir, &neighbor)) {
        sum += grid.Count(h, neighbor);
      }
    }
  }
  return sum;
}

CountingTree BuildTree(const Dataset& data, int num_resolutions) {
  Result<CountingTree> tree = CountingTree::Build(data, num_resolutions);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

// Σ over the mask's neighbors of their counts, per cell, from the join
// kernel split at `split` offsets (two accumulators, summed).
std::vector<int64_t> NeighborSums(const LevelKeys& keys, bool full_mask,
                                  size_t split) {
  const size_t cells = keys.view().num_cells();
  const size_t offsets = PositiveOffsets(keys.view().num_dims(), full_mask);
  std::vector<int64_t> low(cells, 0), high(cells, 0), sums(cells);
  SubtractNeighborPairs(keys, full_mask, 0, split, low.data());
  SubtractNeighborPairs(keys, full_mask, split, offsets, high.data());
  for (size_t i = 0; i < cells; ++i) sums[i] = -(low[i] + high[i]);
  return sums;
}

std::vector<int64_t> ConvolveLevel(const LevelKeys& keys, bool full_mask,
                                   int threads) {
  ThreadPool pool(threads);
  std::vector<int64_t> out(keys.view().num_cells(), -7);
  LaplacianConvolveLevel(keys, full_mask, pool, out.data());
  return out;
}

TEST(LevelKeysTest, FindMatchesGridForEveryCell) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const Dataset data = ClusteredGridData(shape.d, shape.h, 11 + shape.d);
    const CountingTree tree = BuildTree(data, shape.h);
    const ReferenceGrid grid(data, shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      const std::map<Coords, int64_t> arena = IndexOfGridCells(grid, level);
      for (const auto& [coords, cell] : grid.Level(h)) {
        ASSERT_EQ(index.Find(coords.data()), arena.at(coords));
      }
    }
  }
}

TEST(LevelKeysTest, FaceNeighborsMatchGridOnEveryAxis) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const Dataset data = ClusteredGridData(shape.d, shape.h, 23 + shape.d);
    const CountingTree tree = BuildTree(data, shape.h);
    const ReferenceGrid grid(data, shape.h);
    size_t found = 0, low_border = 0, high_border = 0;
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      const std::map<Coords, int64_t> arena = IndexOfGridCells(grid, level);
      const uint64_t max_coord = (uint64_t{1} << h) - 1;
      for (const auto& [coords, cell] : grid.Level(h)) {
        for (size_t j = 0; j < shape.d; ++j) {
          if (coords[j] == 0) ++low_border;
          if (coords[j] == max_coord) ++high_border;
          for (int dir : {-1, +1}) {
            const int64_t expected =
                ExpectedFaceNeighbor(grid, arena, h, coords, j, dir);
            ASSERT_EQ(index.FindFaceNeighbor(coords.data(), j, dir), expected)
                << "h=" << h << " cell=" << arena.at(coords) << " axis=" << j
                << " dir=" << dir;
            if (expected >= 0) ++found;
          }
        }
      }
    }
    EXPECT_GT(found, 0u);
    EXPECT_GT(low_border, 0u);
    EXPECT_GT(high_border, 0u);
  }
}

TEST(LevelKeysTest, FaceNeighborSumMatchesFaceNeighborCounts) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const Dataset data = ClusteredGridData(shape.d, shape.h, 37 + shape.d);
    const CountingTree tree = BuildTree(data, shape.h);
    const ReferenceGrid grid(data, shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      // Every split of the axis range sums to the same neighbor term.
      for (size_t split : {size_t{0}, shape.d / 2, shape.d}) {
        const std::vector<int64_t> sums = NeighborSums(index, false, split);
        for (uint32_t i = 0; i < level.num_cells(); ++i) {
          ASSERT_EQ(sums[i], GridFaceNeighborSum(grid, h, level.Coords(i)))
              << "h=" << h << " cell=" << i << " split=" << split;
        }
      }
    }
  }
}

// The grid's dense-mask response of every cell of `level`, arena order.
std::vector<int64_t> GridResponses(const ReferenceGrid& grid,
                                   const CountingTree::LevelView& level,
                                   bool full_mask) {
  std::vector<int64_t> expected(level.num_cells());
  for (uint32_t i = 0; i < level.num_cells(); ++i) {
    expected[i] = grid.Response(level.level(), level.Coords(i), full_mask);
  }
  return expected;
}

TEST(LevelKeysTest, FaceResponsesMatchGridAtEveryThreadCount) {
  for (size_t d : {2, 14, 30, 62}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Dataset data = ClusteredGridData(d, 5, 53 + d);
    const CountingTree tree = BuildTree(data, 5);
    const ReferenceGrid grid(data, 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys(level);
      const std::vector<int64_t> expected = GridResponses(grid, level, false);
      for (int threads : {1, 2, 4}) {
        EXPECT_EQ(ConvolveLevel(keys, false, threads), expected)
            << "h=" << h << " threads=" << threads;
      }
    }
  }
}

TEST(LevelKeysTest, FullMaskResponsesMatchGrid) {
  for (size_t d = 1; d <= 6; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Dataset data = ClusteredGridData(d, 5, 61 + d);
    const CountingTree tree = BuildTree(data, 5);
    const ReferenceGrid grid(data, 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys(level);
      const std::vector<int64_t> expected = GridResponses(grid, level, true);
      for (int threads : {1, 2, 4}) {
        EXPECT_EQ(ConvolveLevel(keys, true, threads), expected)
            << "h=" << h << " threads=" << threads;
      }
      const size_t offsets = PositiveOffsets(d, true);
      const std::vector<int64_t> sums = NeighborSums(keys, true, offsets / 3);
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        ASSERT_EQ(static_cast<int64_t>(2 * offsets) * level.counts()[i] -
                      sums[i],
                  expected[i]);
      }
    }
  }
}

// Every axis key equal: all cells with the same coordinate sum share a
// key, so nearly every key match is a false one and equal-key runs are
// long. Lookups and responses must still be exact.
TEST(LevelKeysTest, CollidingKeysStillResolveExactly) {
  for (size_t d : {2, 14, 30}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Dataset data = ClusteredGridData(d, 5, 71 + d);
    const CountingTree tree = BuildTree(data, 5);
    const ReferenceGrid grid(data, 5);
    for (int h = 2; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys =
          LevelKeys::TestPeer::EqualAxisKeys(level, 0x9e3779b97f4a7c15ull);
      const std::map<Coords, int64_t> arena = IndexOfGridCells(grid, level);
      // Shift 0 pairs each cell with every cell of its key's run.
      std::set<uint64_t> distinct;
      size_t self_pairs = 0;
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        distinct.insert(keys.Key(level.Coords(i).data()));
      }
      keys.ForEachShiftedPair(0, [&](uint32_t, uint32_t) { ++self_pairs; });
      ASSERT_LT(distinct.size(), level.num_cells());
      ASSERT_GT(self_pairs, level.num_cells());
      for (const auto& [coords, cell] : grid.Level(h)) {
        ASSERT_EQ(keys.Find(coords.data()), arena.at(coords));
        for (size_t j = 0; j < d; ++j) {
          for (int dir : {-1, +1}) {
            ASSERT_EQ(keys.FindFaceNeighbor(coords.data(), j, dir),
                      ExpectedFaceNeighbor(grid, arena, h, coords, j, dir));
          }
        }
      }
      const std::vector<int64_t> expected = GridResponses(grid, level, false);
      for (int threads : {1, 2}) {
        EXPECT_EQ(ConvolveLevel(keys, false, threads), expected)
            << "h=" << h << " threads=" << threads;
      }
    }
  }
}

TEST(LevelKeysTest, CoordinatesWithoutPointsAreMisses) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const Dataset data = ClusteredGridData(shape.d, shape.h, 41 + shape.d);
    const CountingTree tree = BuildTree(data, shape.h);
    const ReferenceGrid grid(data, shape.h);
    Rng rng(5 + shape.d);
    size_t misses = 0;
    for (int h = 2; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      // Axis-0 cells inside the empty slab [0.5, 0.75) at level h.
      const uint64_t slab_begin = uint64_t{1} << (h - 1);
      const uint64_t slab_width = uint64_t{1} << (h - 2);
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        std::vector<uint64_t> coords = level.Coords(i);
        coords[0] = slab_begin + rng.UniformInt(slab_width);
        ASSERT_EQ(grid.Find(h, coords), nullptr);
        ASSERT_EQ(index.Find(coords.data()), -1);
        ++misses;
      }
      // Random coordinates: a miss exactly when no point lies there.
      for (int k = 0; k < 200; ++k) {
        std::vector<uint64_t> coords(shape.d);
        for (uint64_t& c : coords) c = rng.UniformInt(uint64_t{1} << h);
        const bool present = grid.Find(h, coords) != nullptr;
        ASSERT_EQ(index.Find(coords.data()) >= 0, present);
      }
    }
    EXPECT_GT(misses, 0u);
  }
}

TEST(LevelKeysTest, SingleCellLevelHasNoNeighbors) {
  for (size_t d : {1, 30, 62}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    Dataset data(0, d);
    for (int p = 0; p < 3; ++p) data.AppendPoint(std::vector<double>(d, 0.3));
    const CountingTree tree = BuildTree(data, 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      ASSERT_EQ(level.num_cells(), 1u);
      const LevelKeys index(level);
      const std::vector<uint64_t> coords = level.Coords(0);
      EXPECT_EQ(index.Find(coords.data()), 0);
      for (size_t j = 0; j < d; ++j) {
        EXPECT_EQ(index.FindFaceNeighbor(coords.data(), j, -1), -1);
        EXPECT_EQ(index.FindFaceNeighbor(coords.data(), j, +1), -1);
      }
      EXPECT_EQ(NeighborSums(index, false, d / 2), std::vector<int64_t>{0});
      std::vector<uint64_t> other = coords;
      other[d - 1] ^= 1;
      EXPECT_EQ(index.Find(other.data()), -1);
    }
  }
}

}  // namespace
}  // namespace mrcc

// Differential tests of LevelKeys and the merge-join convolution against
// the tree's own root-descent lookups (CountingTree::FindCell /
// FaceNeighbor / FaceNeighborCount, FaceLaplacianConvolve,
// FullLaplacianConvolve) on seeded random trees, from d = 1 up to the
// d = 62 ceiling, at several thread counts, and with every axis key
// forced equal so that distinct cells collide.

#include "core/level_keys.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/counting_tree.h"
#include "core/laplacian_mask.h"
#include "data/dataset.h"

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

TEST(LevelKeysTest, FindMatchesRootDescentForEveryCell) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 11 + shape.d), shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        const std::vector<uint64_t> coords = level.Coords(i);
        CountingTree::CellRef ref;
        ASSERT_TRUE(tree.FindCell(h, coords, &ref));
        ASSERT_EQ(ref.index, i);
        ASSERT_EQ(index.Find(coords.data()), static_cast<int64_t>(i));
      }
    }
  }
}

TEST(LevelKeysTest, FaceNeighborsMatchRootDescentOnEveryAxis) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 23 + shape.d), shape.h);
    size_t found = 0, low_border = 0, high_border = 0;
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      const uint64_t max_coord = (uint64_t{1} << h) - 1;
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        const std::vector<uint64_t> coords = level.Coords(i);
        for (size_t j = 0; j < shape.d; ++j) {
          if (coords[j] == 0) ++low_border;
          if (coords[j] == max_coord) ++high_border;
          for (int dir : {-1, +1}) {
            CountingTree::CellRef ref;
            const bool exists = tree.FaceNeighbor(h, coords, j, dir, &ref);
            const int64_t got = index.FindFaceNeighbor(coords.data(), j, dir);
            ASSERT_EQ(got, exists ? static_cast<int64_t>(ref.index) : -1)
                << "h=" << h << " cell=" << i << " axis=" << j
                << " dir=" << dir;
            if (exists) ++found;
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
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 37 + shape.d), shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys index(level);
      // Every split of the axis range sums to the same neighbor term.
      for (size_t split : {size_t{0}, shape.d / 2, shape.d}) {
        const std::vector<int64_t> sums = NeighborSums(index, false, split);
        for (uint32_t i = 0; i < level.num_cells(); ++i) {
          const std::vector<uint64_t> coords = level.Coords(i);
          int64_t expected = 0;
          for (size_t j = 0; j < shape.d; ++j) {
            expected += tree.FaceNeighborCount(h, coords, j, -1);
            expected += tree.FaceNeighborCount(h, coords, j, +1);
          }
          ASSERT_EQ(sums[i], expected)
              << "h=" << h << " cell=" << i << " split=" << split;
        }
      }
    }
  }
}

TEST(LevelKeysTest, FaceResponsesMatchRootDescentAtEveryThreadCount) {
  for (size_t d : {2, 14, 30, 62}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const CountingTree tree = BuildTree(ClusteredGridData(d, 5, 53 + d), 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys(level);
      std::vector<int64_t> expected(level.num_cells());
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        expected[i] = FaceLaplacianConvolve(tree, h, level.Coords(i),
                                            level.counts()[i]);
      }
      for (int threads : {1, 2, 4}) {
        EXPECT_EQ(ConvolveLevel(keys, false, threads), expected)
            << "h=" << h << " threads=" << threads;
      }
    }
  }
}

TEST(LevelKeysTest, FullMaskResponsesMatchRootDescent) {
  for (size_t d = 1; d <= 6; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const CountingTree tree = BuildTree(ClusteredGridData(d, 5, 61 + d), 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys(level);
      std::vector<int64_t> expected(level.num_cells());
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        expected[i] = FullLaplacianConvolve(tree, h, level.Coords(i),
                                            level.counts()[i]);
      }
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
    const CountingTree tree = BuildTree(ClusteredGridData(d, 5, 71 + d), 5);
    for (int h = 2; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelKeys keys =
          LevelKeys::TestPeer::EqualAxisKeys(level, 0x9e3779b97f4a7c15ull);
      // Shift 0 pairs each cell with every cell of its key's run.
      std::set<uint64_t> distinct;
      size_t self_pairs = 0;
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        distinct.insert(keys.Key(level.Coords(i).data()));
      }
      keys.ForEachShiftedPair(0, [&](uint32_t, uint32_t) { ++self_pairs; });
      ASSERT_LT(distinct.size(), level.num_cells());
      ASSERT_GT(self_pairs, level.num_cells());
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        const std::vector<uint64_t> coords = level.Coords(i);
        ASSERT_EQ(keys.Find(coords.data()), static_cast<int64_t>(i));
        for (size_t j = 0; j < d; ++j) {
          for (int dir : {-1, +1}) {
            CountingTree::CellRef ref;
            const bool exists = tree.FaceNeighbor(h, coords, j, dir, &ref);
            ASSERT_EQ(keys.FindFaceNeighbor(coords.data(), j, dir),
                      exists ? static_cast<int64_t>(ref.index) : -1);
          }
        }
      }
      std::vector<int64_t> expected(level.num_cells());
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        expected[i] = FaceLaplacianConvolve(tree, h, level.Coords(i),
                                            level.counts()[i]);
      }
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
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 41 + shape.d), shape.h);
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
        CountingTree::CellRef ref;
        ASSERT_FALSE(tree.FindCell(h, coords, &ref));
        ASSERT_EQ(index.Find(coords.data()), -1);
        ++misses;
      }
      // Random coordinates: a miss exactly when the tree has no cell.
      std::set<std::vector<uint64_t>> occupied;
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        occupied.insert(level.Coords(i));
      }
      for (int k = 0; k < 200; ++k) {
        std::vector<uint64_t> coords(shape.d);
        for (uint64_t& c : coords) c = rng.UniformInt(uint64_t{1} << h);
        const bool present = occupied.count(coords) > 0;
        CountingTree::CellRef ref;
        ASSERT_EQ(tree.FindCell(h, coords, &ref), present);
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

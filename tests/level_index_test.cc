// Differential tests of LevelIndex against the tree's own root-descent
// lookups (CountingTree::FindCell / FaceNeighbor / FaceNeighborCount) on
// seeded random trees, from d = 1 up to the d = 62 ceiling.

#include "core/level_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/counting_tree.h"
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

TEST(LevelIndexTest, FindMatchesRootDescentForEveryCell) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 11 + shape.d), shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelIndex index(level);
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        const std::vector<uint64_t> coords = level.Coords(i);
        CountingTree::CellRef ref;
        ASSERT_TRUE(tree.FindCell(h, coords, &ref));
        ASSERT_EQ(ref.index, i);
        ASSERT_EQ(index.Find(coords.data()), static_cast<int64_t>(i));
        ASSERT_EQ(std::vector<uint64_t>(index.CellCoords(i),
                                        index.CellCoords(i) + shape.d),
                  coords);
      }
    }
  }
}

TEST(LevelIndexTest, FaceNeighborsMatchRootDescentOnEveryAxis) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 23 + shape.d), shape.h);
    size_t found = 0, low_border = 0, high_border = 0;
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelIndex index(level);
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

TEST(LevelIndexTest, FaceNeighborSumMatchesFaceNeighborCounts) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 37 + shape.d), shape.h);
    for (int h = 1; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelIndex index(level);
      for (uint32_t i = 0; i < level.num_cells(); ++i) {
        const std::vector<uint64_t> coords = level.Coords(i);
        int64_t expected = 0;
        for (size_t j = 0; j < shape.d; ++j) {
          expected += tree.FaceNeighborCount(h, coords, j, -1);
          expected += tree.FaceNeighborCount(h, coords, j, +1);
        }
        ASSERT_EQ(index.FaceNeighborSum(i, level.counts().data()), expected)
            << "h=" << h << " cell=" << i;
      }
    }
  }
}

TEST(LevelIndexTest, CoordinatesWithoutPointsAreMisses) {
  for (const Shape& shape : Shapes()) {
    SCOPED_TRACE("d=" + std::to_string(shape.d) +
                 " H=" + std::to_string(shape.h));
    const CountingTree tree =
        BuildTree(ClusteredGridData(shape.d, shape.h, 41 + shape.d), shape.h);
    Rng rng(5 + shape.d);
    size_t misses = 0;
    for (int h = 2; h < shape.h; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      const LevelIndex index(level);
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

TEST(LevelIndexTest, SingleCellLevelHasNoNeighbors) {
  for (size_t d : {1, 30, 62}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    Dataset data(0, d);
    for (int p = 0; p < 3; ++p) data.AppendPoint(std::vector<double>(d, 0.3));
    const CountingTree tree = BuildTree(data, 5);
    for (int h = 1; h < 5; ++h) {
      const CountingTree::LevelView level = tree.Level(h);
      ASSERT_EQ(level.num_cells(), 1u);
      const LevelIndex index(level);
      const std::vector<uint64_t> coords = level.Coords(0);
      EXPECT_EQ(index.Find(coords.data()), 0);
      for (size_t j = 0; j < d; ++j) {
        EXPECT_EQ(index.FindFaceNeighbor(coords.data(), j, -1), -1);
        EXPECT_EQ(index.FindFaceNeighbor(coords.data(), j, +1), -1);
      }
      EXPECT_EQ(index.FaceNeighborSum(0, level.counts().data()), 0);
      std::vector<uint64_t> other = coords;
      other[d - 1] ^= 1;
      EXPECT_EQ(index.Find(other.data()), -1);
    }
  }
}

}  // namespace
}  // namespace mrcc

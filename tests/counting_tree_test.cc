#include "core/counting_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "reference_grid.h"
#include "test_util.h"

namespace mrcc {
namespace {

using CellRef = CountingTree::CellRef;
using Coords = std::vector<uint64_t>;
using testing::ReferenceGrid;

// Arena index of each cell of `level`, by its coordinates.
std::map<Coords, uint32_t> IndexByCoords(const CountingTree::LevelView& level) {
  std::map<Coords, uint32_t> index;
  for (uint32_t i = 0; i < level.num_cells(); ++i) index[level.Coords(i)] = i;
  return index;
}

// Count of the tree's cell at coords, or -1 if absent.
int64_t CountAt(const CountingTree& tree, int level, const Coords& coords) {
  const CountingTree::LevelView view = tree.Level(level);
  const std::map<Coords, uint32_t> index = IndexByCoords(view);
  const auto it = index.find(coords);
  if (it == index.end()) return -1;
  return view.counts()[it->second];
}

// Half-space count of the tree's cell at coords, which must exist.
uint32_t HalfAt(const CountingTree& tree, int level, const Coords& coords,
                size_t axis) {
  const CountingTree::LevelView view = tree.Level(level);
  const std::map<Coords, uint32_t> index = IndexByCoords(view);
  const auto it = index.find(coords);
  EXPECT_NE(it, index.end());
  return it == index.end() ? 0 : view.half_of(it->second)[axis];
}

TEST(CountingTreeTest, RejectsBadArguments) {
  Dataset d = testing::UniformDataset(10, 3, 1);
  EXPECT_FALSE(CountingTree::Build(d, 2).ok());  // H < 3.
  Dataset out_of_cube = testing::MakeDataset({{1.5, 0.2}});
  EXPECT_FALSE(CountingTree::Build(out_of_cube, 4).ok());
  Dataset too_wide(2, 63);
  EXPECT_FALSE(CountingTree::Build(too_wide, 4).ok());
}

TEST(CountingTreeTest, ClampsExcessiveResolutions) {
  Dataset d = testing::UniformDataset(20, 2, 3);
  Result<CountingTree> tree = CountingTree::Build(d, 80);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->num_resolutions(), CountingTree::kMaxResolutions + 1);
}

TEST(CountingTreeTest, HandCraftedTwoDimensionalExample) {
  // Four points in known quadrants (Fig. 3 style).
  Dataset d = testing::MakeDataset({
      {0.1, 0.1},   // Lower-left quadrant.
      {0.2, 0.2},   // Lower-left quadrant.
      {0.9, 0.1},   // Lower-right quadrant.
      {0.6, 0.7},   // Upper-right quadrant.
  });
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->total_points(), 4u);

  // Level 1 (2x2 grid): cells (0,0):2, (1,0):1, (1,1):1.
  EXPECT_EQ(CountAt(*tree, 1, {0, 0}), 2);
  EXPECT_EQ(CountAt(*tree, 1, {1, 0}), 1);
  EXPECT_EQ(CountAt(*tree, 1, {1, 1}), 1);
  EXPECT_EQ(CountAt(*tree, 1, {0, 1}), -1);  // Empty quadrant.

  // Half-space counts of the lower-left cell: both (0.1,0.1) and
  // (0.2,0.2) lie in the lower half along both axes (0 <= v < 0.25).
  EXPECT_EQ(HalfAt(*tree, 1, {0, 0}, 0), 2u);
  EXPECT_EQ(HalfAt(*tree, 1, {0, 0}, 1), 2u);
  // The lower-right cell's point (0.9, 0.1) is in the upper half along
  // axis 0 (0.75 <= v < 1) and the lower half along axis 1.
  EXPECT_EQ(HalfAt(*tree, 1, {1, 0}, 0), 0u);
  EXPECT_EQ(HalfAt(*tree, 1, {1, 0}, 1), 1u);

  // Level 2 (4x4): point (0.6, 0.7) sits in cell (2, 2).
  EXPECT_EQ(CountAt(*tree, 2, {2, 2}), 1);
}

TEST(CountingTreeTest, FaceNeighborsInHandCraftedExample) {
  const Dataset d = testing::MakeDataset({
      {0.1, 0.1},
      {0.9, 0.1},
  });
  Result<CountingTree> tree = CountingTree::Build(d, 3);
  ASSERT_TRUE(tree.ok());
  Coords neighbor;
  // At level 1, (0,0) and (1,0) are face neighbors along axis 0.
  ASSERT_TRUE(ReferenceGrid::FaceNeighbor(1, {0, 0}, 0, +1, &neighbor));
  EXPECT_EQ(neighbor, (Coords{1, 0}));
  EXPECT_EQ(CountAt(*tree, 1, neighbor), 1);
  // Border: no neighbor below coordinate 0 / above the maximum.
  EXPECT_FALSE(ReferenceGrid::FaceNeighbor(1, {0, 0}, 0, -1, &neighbor));
  EXPECT_FALSE(ReferenceGrid::FaceNeighbor(1, {1, 0}, 0, +1, &neighbor));
  // Empty space: (0,1) holds no points, in the tree or on the grid.
  ASSERT_TRUE(ReferenceGrid::FaceNeighbor(1, {0, 0}, 1, +1, &neighbor));
  EXPECT_EQ(CountAt(*tree, 1, neighbor), -1);
  EXPECT_EQ(ReferenceGrid(d, 3).Count(1, neighbor), 0u);
}

TEST(CountingTreeTest, MemoryGrowsWithData) {
  Dataset small = testing::UniformDataset(100, 4, 1);
  Dataset large = testing::UniformDataset(10000, 4, 1);
  Result<CountingTree> ts = CountingTree::Build(small, 4);
  Result<CountingTree> tl = CountingTree::Build(large, 4);
  ASSERT_TRUE(ts.ok() && tl.ok());
  EXPECT_GT(tl->MemoryBytes(), ts->MemoryBytes());
}

// Property sweep over dimensionality, depth and size: structural
// invariants of the tree hold for arbitrary uniform data.
class CountingTreeParam
    : public ::testing::TestWithParam<std::tuple<size_t, int, size_t>> {};

TEST_P(CountingTreeParam, StructuralInvariants) {
  const auto [dims, resolutions, points] = GetParam();
  Dataset d = testing::UniformDataset(points, dims, 40 + dims);
  Result<CountingTree> tree = CountingTree::Build(d, resolutions);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->total_points(), points);
  const ReferenceGrid grid(d, tree->num_resolutions());

  for (int h = 1; h < tree->num_resolutions(); ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    EXPECT_EQ(level.level(), h);
    EXPECT_EQ(level.num_dims(), dims);
    const size_t cells = level.num_cells();
    EXPECT_EQ(level.counts().size(), cells);
    EXPECT_EQ(level.locs().size(), cells);
    EXPECT_EQ(level.children().size(), cells);
    EXPECT_EQ(level.half().size(), cells * dims);

    uint64_t level_total = 0;
    for (uint32_t i = 0; i < cells; ++i) {
      const uint32_t n = level.counts()[i];
      level_total += n;
      EXPECT_GT(n, 0u);  // Sparse: only populated cells stored.
      // Half-space counts never exceed the cell count.
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_LE(level.half_of(i)[j], n);
      }
      // Coordinates name the grid cell holding the same points.
      const auto coords = level.Coords(i);
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_LT(coords[j], uint64_t{1} << h);
      }
      const ReferenceGrid::Cell* cell = grid.Find(h, coords);
      ASSERT_NE(cell, nullptr) << "level " << h << " cell " << i;
      EXPECT_EQ(n, cell->n);
    }
    // One tree cell per populated grid cell: no coordinates twice.
    EXPECT_EQ(IndexByCoords(level).size(), cells);
    EXPECT_EQ(grid.Level(h).size(), cells);
    // Every level counts every point exactly once.
    EXPECT_EQ(level_total, points);
    EXPECT_EQ(tree->NumCellsAtLevel(h), cells);
    EXPECT_LE(cells, points);  // At most eta cells per level.

    // Children sum to the parent count: group this level's cells by
    // their parent coordinates, which must be a grid cell of level h - 1.
    if (h >= 2) {
      const CountingTree::LevelView parents = tree->Level(h - 1);
      std::map<Coords, uint64_t> child_sum;
      Coords parent_coords(dims);
      for (uint32_t i = 0; i < cells; ++i) {
        level.CoordsInto(i, parent_coords.data());
        for (size_t j = 0; j < dims; ++j) parent_coords[j] >>= 1;
        ASSERT_NE(grid.Find(h - 1, parent_coords), nullptr);
        child_sum[parent_coords] += level.counts()[i];
      }
      for (uint32_t p = 0; p < parents.num_cells(); ++p) {
        const uint64_t sum = child_sum[parents.Coords(p)];
        if (parents.children()[p] >= 0) {
          EXPECT_EQ(sum, parents.counts()[p]) << "parent " << p;
        } else {
          EXPECT_EQ(sum, 0u) << "parent " << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountingTreeParam,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 5, 14),
                       ::testing::Values(3, 4, 6),
                       ::testing::Values<size_t>(64, 1000)));

// Counts match the grid built from the points for every stored cell,
// and every populated grid cell is stored.
TEST(CountingTreeTest, CountsMatchBruteForce) {
  Dataset d = testing::UniformDataset(300, 3, 77);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const ReferenceGrid grid(d, 4);
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    ASSERT_EQ(level.num_cells(), grid.Level(h).size());
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const ReferenceGrid::Cell* cell = grid.Find(h, level.Coords(i));
      ASSERT_NE(cell, nullptr);
      EXPECT_EQ(level.counts()[i], cell->n);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(level.half_of(i)[j], cell->lower[j]);
      }
    }
  }
}

// The tree's cell beside each stored cell, on every axis and side,
// holds what the grid's face neighbour holds (absent where it is empty).
TEST(CountingTreeTest, FaceNeighborsMatchBruteForce) {
  Dataset d = testing::UniformDataset(200, 2, 13);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const ReferenceGrid grid(d, 4);
  size_t found = 0;
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    const std::map<Coords, uint32_t> index = IndexByCoords(level);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const Coords coords = level.Coords(i);
      for (size_t j = 0; j < 2; ++j) {
        for (int dir : {-1, +1}) {
          Coords neighbor;
          if (!ReferenceGrid::FaceNeighbor(h, coords, j, dir, &neighbor)) {
            continue;
          }
          const auto it = index.find(neighbor);
          const uint32_t got =
              it == index.end() ? 0 : level.counts()[it->second];
          EXPECT_EQ(got, grid.Count(h, neighbor));
          found += got > 0;
        }
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(CountingTreeTest, BoundaryValuesNearOne) {
  // Values just below 1.0 land in the last cell at every level.
  Dataset d = testing::MakeDataset({{1.0 - 1e-12}});
  Result<CountingTree> tree = CountingTree::Build(d, 5);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 5; ++h) {
    const uint64_t last = (uint64_t{1} << h) - 1;
    EXPECT_EQ(CountAt(*tree, h, {last}), 1) << "level " << h;
  }
}

TEST(CountingTreeTest, ZeroIsInFirstCell) {
  Dataset d = testing::MakeDataset({{0.0, 0.0}});
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(CountAt(*tree, 3, {0, 0}), 1);
}

TEST(CountingTreeInvariantsTest, FreshTreeValidates) {
  Dataset d = testing::UniformDataset(2000, 5, 11);
  Result<CountingTree> tree = CountingTree::Build(d, 5);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->ValidateInvariants().ok());
}

TEST(CountingTreeInvariantsTest, DetectsHalfCountAboveCellCount) {
  Dataset d = testing::UniformDataset(1000, 4, 12);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  // P[j] counts a subset of the cell's points, so P[j] > n is impossible
  // in a correct tree.
  const CellRef first{1, 0};
  CountingTree::TestPeer::Half(*tree, first, 0) =
      tree->Level(1).counts()[0] + 1;
  const Status v = tree->ValidateInvariants();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("half-space"), std::string::npos)
      << v.ToString();
}

TEST(CountingTreeInvariantsTest, DetectsLocBitsAboveDimension) {
  Dataset d = testing::UniformDataset(1000, 4, 13);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  // d = 4: bit 60 invalid.
  CountingTree::TestPeer::Loc(*tree, CellRef{1, 0}) |= uint64_t{1} << 60;
  const Status v = tree->ValidateInvariants();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("loc"), std::string::npos) << v.ToString();
}

TEST(CountingTreeInvariantsTest, DetectsChildSumMismatch) {
  Dataset d = testing::UniformDataset(1000, 4, 14);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  // Inflating one level-1 cell breaks "child counts sum to the parent"
  // (and the root total): every point in a cell is also counted in its
  // child node.
  CountingTree::TestPeer::Count(*tree, CellRef{1, 0}) += 5;
  EXPECT_FALSE(tree->ValidateInvariants().ok());
}

TEST(CountingTreeInvariantsTest, DetectsDanglingChildPointer) {
  Dataset d = testing::UniformDataset(1000, 4, 15);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  CountingTree::TestPeer::Child(*tree, CellRef{1, 0}) =
      static_cast<int32_t>(tree->num_nodes() + 100);
  const Status v = tree->ValidateInvariants();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.message().find("child"), std::string::npos) << v.ToString();
}

// Exact messages of the per-cell checks. The level-1 arena is the root
// node's (node 0) slice, so CellRef{1, c} is "node 0: cell c". Loaders
// surface these strings verbatim ("corrupt tree in <path>: ..."), so
// they are pinned byte for byte.
class InvariantMessageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset data = testing::UniformDataset(1000, 4, 16);
    Result<CountingTree> tree = CountingTree::Build(data, 4);
    ASSERT_TRUE(tree.ok());
    tree_ = std::make_unique<CountingTree>(std::move(tree).value());
    ASSERT_GE(tree_->NumCellsAtLevel(1), 6u);
    ASSERT_TRUE(tree_->ValidateInvariants().ok());
  }

  std::string Message() const { return tree_->ValidateInvariants().message(); }

  std::unique_ptr<CountingTree> tree_;
};

TEST_F(InvariantMessageTest, DuplicateSiblingLoc) {
  CountingTree::TestPeer::Loc(*tree_, CellRef{1, 1}) =
      CountingTree::TestPeer::Loc(*tree_, CellRef{1, 0});
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 1: duplicate loc among "
            "siblings");
}

TEST_F(InvariantMessageTest, DuplicateSiblingLocNamesTheLaterCell) {
  // Not adjacent, not the first cell: the report names the second
  // occurrence in slice order.
  CountingTree::TestPeer::Loc(*tree_, CellRef{1, 5}) =
      CountingTree::TestPeer::Loc(*tree_, CellRef{1, 2});
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 5: duplicate loc among "
            "siblings");
}

TEST_F(InvariantMessageTest, OwnerMismatch) {
  CountingTree::TestPeer::Owner(*tree_, CellRef{1, 2}) = 7;
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 2: arena owner points at "
            "node 7");
}

TEST_F(InvariantMessageTest, HalfCountAboveCellCount) {
  const CellRef cell{1, 3};
  const uint32_t n = tree_->Level(1).counts()[3];
  CountingTree::TestPeer::Half(*tree_, cell, 2) = n + 1;
  EXPECT_EQ(Message(), "tree invariant violated: node 0: cell 3: half-space "
                       "count " + std::to_string(n + 1) +
                           " exceeds cell count " + std::to_string(n) +
                           " on axis 2");
}

TEST_F(InvariantMessageTest, LocBitsAboveDimension) {
  CountingTree::TestPeer::Loc(*tree_, CellRef{1, 0}) |= uint64_t{1} << 60;
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 0: loc has bits above "
            "dimension 4");
}

TEST_F(InvariantMessageTest, ChildSumMismatch) {
  const CellRef cell{1, 4};
  const uint32_t n = tree_->Level(1).counts()[4];
  CountingTree::TestPeer::Count(*tree_, cell) += 5;
  EXPECT_EQ(Message(), "tree invariant violated: node 0: cell 4: child "
                       "counts sum to " + std::to_string(n) +
                           ", expected " + std::to_string(n + 5));
}

TEST_F(InvariantMessageTest, DanglingChild) {
  CountingTree::TestPeer::Child(*tree_, CellRef{1, 1}) =
      static_cast<int32_t>(tree_->num_nodes() + 100);
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 1: dangling child "
            "pointer");
}

TEST_F(InvariantMessageTest, ChildNodeBeforeItsParentsNode) {
  // Creation order: a child node follows its parent cell's node in the
  // pool. Node 1 is the first level-2 node, owning level-2 cell 0; a
  // child pointer back at node 1 (or any node before it) breaks it.
  CountingTree::TestPeer::Child(*tree_, CellRef{2, 0}) = 1;
  EXPECT_EQ(Message(),
            "tree invariant violated: node 1: cell 0: child node 1 is not "
            "after its parent's node");
}

TEST_F(InvariantMessageTest, ChildlessCellAboveTheDeepestLevel) {
  // Every point reaches the deepest level, so a cell above it without a
  // child node is corrupt; a fold's key order could not rank it.
  CountingTree::TestPeer::Child(*tree_, CellRef{1, 2}) = -1;
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 2: no child node above "
            "the deepest level");
}

// ---- LevelView: the one read API over the SoA arenas.

// Every span entry of a cell agrees with the grid's single-cell lookup
// at the cell's coordinates: locs are the coordinates' low bits, counts
// and half counts the grid cell's, and every cell above the deepest level
// has a child node.
TEST(LevelViewTest, SpansAgreeWithSingleCellAccessors) {
  Dataset d = testing::UniformDataset(500, 3, 21);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const ReferenceGrid grid(d, 4);
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const Coords coords = level.Coords(i);
      const ReferenceGrid::Cell* cell = grid.Find(h, coords);
      ASSERT_NE(cell, nullptr);
      uint64_t loc = 0;
      for (size_t j = 0; j < 3; ++j) loc |= (coords[j] & 1) << j;
      EXPECT_EQ(level.locs()[i], loc);
      EXPECT_EQ(level.counts()[i], cell->n);
      EXPECT_EQ(level.children()[i] >= 0, h < 3);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(level.half_of(i)[j], cell->lower[j]);
        EXPECT_EQ(level.half()[i * 3 + j], cell->lower[j]);
      }
    }
  }
}

TEST(LevelViewTest, CoordsIntoMatchesCoords) {
  Dataset d = testing::UniformDataset(200, 5, 22);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const CountingTree::LevelView level = tree->Level(2);
  std::vector<uint64_t> scratch(5);
  for (uint32_t i = 0; i < level.num_cells(); ++i) {
    level.CoordsInto(i, scratch.data());
    EXPECT_EQ(scratch, level.Coords(i));
  }
}

}  // namespace
}  // namespace mrcc

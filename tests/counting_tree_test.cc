#include "core/counting_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "test_util.h"

namespace mrcc {
namespace {

using CellRef = CountingTree::CellRef;

// Convenience: count of the cell at coords, or -1 if absent.
int64_t CountAt(const CountingTree& tree, int level,
                const std::vector<uint64_t>& coords) {
  CellRef ref;
  if (!tree.FindCell(level, coords, &ref)) return -1;
  return tree.Count(ref);
}

// Convenience: half-space count, requires the cell to exist.
uint32_t HalfAt(const CountingTree& tree, int level,
                const std::vector<uint64_t>& coords, size_t axis) {
  CellRef ref;
  EXPECT_TRUE(tree.FindCell(level, coords, &ref));
  return tree.HalfCount(ref, axis);
}

// Brute-force count of points inside the cell at `coords` on `level`.
uint32_t BruteCount(const Dataset& data, int level,
                    const std::vector<uint64_t>& coords) {
  const double width = std::ldexp(1.0, -level);
  uint32_t count = 0;
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    bool inside = true;
    for (size_t j = 0; j < data.NumDims(); ++j) {
      const double lo = static_cast<double>(coords[j]) * width;
      if (data(i, j) < lo || data(i, j) >= lo + width) {
        inside = false;
        break;
      }
    }
    if (inside) ++count;
  }
  return count;
}

// Brute-force half-space count (lower half along `axis`).
uint32_t BruteHalfCount(const Dataset& data, int level,
                        const std::vector<uint64_t>& coords, size_t axis) {
  const double width = std::ldexp(1.0, -level);
  uint32_t count = 0;
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    bool inside = true;
    for (size_t j = 0; j < data.NumDims(); ++j) {
      const double lo = static_cast<double>(coords[j]) * width;
      if (data(i, j) < lo || data(i, j) >= lo + width) {
        inside = false;
        break;
      }
    }
    if (inside) {
      const double mid = (static_cast<double>(coords[axis]) + 0.5) * width;
      if (data(i, axis) < mid) ++count;
    }
  }
  return count;
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
  Dataset d = testing::MakeDataset({
      {0.1, 0.1},
      {0.9, 0.1},
  });
  Result<CountingTree> tree = CountingTree::Build(d, 3);
  ASSERT_TRUE(tree.ok());
  CellRef ref;
  // At level 1, (0,0) and (1,0) are face neighbors along axis 0.
  ASSERT_TRUE(tree->FaceNeighbor(1, {0, 0}, 0, +1, &ref));
  EXPECT_EQ(tree->Count(ref), 1u);
  // Border: no neighbor below coordinate 0 / above the maximum.
  EXPECT_FALSE(tree->FaceNeighbor(1, {0, 0}, 0, -1, &ref));
  EXPECT_FALSE(tree->FaceNeighbor(1, {1, 0}, 0, +1, &ref));
  // Empty space: (0,1) holds no points.
  EXPECT_FALSE(tree->FaceNeighbor(1, {0, 0}, 1, +1, &ref));
  EXPECT_EQ(tree->FaceNeighborCount(1, {0, 0}, 1, +1), 0u);
}

TEST(CountingTreeTest, ResetUsedFlags) {
  Dataset d = testing::UniformDataset(50, 2, 5);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  tree->SetUsed(CellRef{1, 0}, true);
  EXPECT_TRUE(tree->Used(CellRef{1, 0}));
  tree->ResetUsedFlags();
  for (int h = 1; h < tree->num_resolutions(); ++h) {
    for (uint8_t u : tree->Level(h).used()) EXPECT_EQ(u, 0);
  }
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

  for (int h = 1; h < tree->num_resolutions(); ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    EXPECT_EQ(level.level(), h);
    EXPECT_EQ(level.num_dims(), dims);
    const size_t cells = level.num_cells();
    EXPECT_EQ(level.counts().size(), cells);
    EXPECT_EQ(level.locs().size(), cells);
    EXPECT_EQ(level.children().size(), cells);
    EXPECT_EQ(level.used().size(), cells);
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
      // Coordinates round-trip through FindCell to the same arena slot.
      const auto coords = level.Coords(i);
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_LT(coords[j], uint64_t{1} << h);
      }
      CellRef found;
      ASSERT_TRUE(tree->FindCell(h, coords, &found));
      EXPECT_EQ(found.level, h);
      EXPECT_EQ(found.index, i);
    }
    // Every level counts every point exactly once.
    EXPECT_EQ(level_total, points);
    EXPECT_EQ(tree->NumCellsAtLevel(h), cells);
    EXPECT_LE(cells, points);  // At most eta cells per level.

    // Children sum to the parent count: group this level's cells by
    // their parent coordinates and compare against level h - 1.
    if (h >= 2) {
      const CountingTree::LevelView parents = tree->Level(h - 1);
      std::vector<uint64_t> child_sum(parents.num_cells(), 0);
      std::vector<uint64_t> parent_coords(dims);
      for (uint32_t i = 0; i < cells; ++i) {
        level.CoordsInto(i, parent_coords.data());
        for (size_t j = 0; j < dims; ++j) parent_coords[j] >>= 1;
        CellRef parent;
        ASSERT_TRUE(tree->FindCell(h - 1, parent_coords, &parent));
        child_sum[parent.index] += level.counts()[i];
      }
      for (uint32_t p = 0; p < parents.num_cells(); ++p) {
        if (parents.children()[p] >= 0) {
          EXPECT_EQ(child_sum[p], parents.counts()[p]) << "parent " << p;
        } else {
          EXPECT_EQ(child_sum[p], 0u) << "parent " << p;
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

// Counts match brute force for every stored cell on a small dataset.
TEST(CountingTreeTest, CountsMatchBruteForce) {
  Dataset d = testing::UniformDataset(300, 3, 77);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const auto coords = level.Coords(i);
      EXPECT_EQ(level.counts()[i], BruteCount(d, h, coords));
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(level.half_of(i)[j], BruteHalfCount(d, h, coords, j));
      }
    }
  }
}

TEST(CountingTreeTest, FaceNeighborsMatchBruteForce) {
  Dataset d = testing::UniformDataset(200, 2, 13);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const auto coords = level.Coords(i);
      for (size_t j = 0; j < 2; ++j) {
        for (int dir : {-1, +1}) {
          std::vector<uint64_t> neighbor = coords;
          const uint64_t max_coord = (uint64_t{1} << h) - 1;
          uint32_t expected = 0;
          if (!(dir < 0 && coords[j] == 0) &&
              !(dir > 0 && coords[j] == max_coord)) {
            neighbor[j] += dir;
            expected = BruteCount(d, h, neighbor);
          }
          EXPECT_EQ(tree->FaceNeighborCount(h, coords, j, dir), expected);
        }
      }
    }
  }
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

// The loc index kicks in above kIndexThreshold cells per node; lookups
// must behave identically on either side of the switch.
TEST(CountingTreeTest, DenseNodeIndexSwitchIsTransparent) {
  // 1-d data spread over all 32 level-5 leaves forces the root's
  // descendants through the threshold.
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({(i + 0.5) / 64.0});
  }
  Dataset d = testing::MakeDataset(points);
  Result<CountingTree> tree = CountingTree::Build(d, 7);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 7; ++h) {
    const uint64_t cells = uint64_t{1} << std::min(h, 6);
    for (uint64_t c = 0; c < cells; ++c) {
      const int64_t expected =
          static_cast<int64_t>(64 >> std::min(h, 6));
      EXPECT_EQ(CountAt(*tree, h, {c}), expected) << "h=" << h << " c=" << c;
    }
  }
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
  CountingTree::TestPeer::Half(*tree, first, 0) = tree->Count(first) + 1;
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
  const uint32_t n = tree_->Count(cell);
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
  const uint32_t n = tree_->Count(cell);
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

TEST_F(InvariantMessageTest, ChildlessCellAboveTheDeepestLevel) {
  // Every point reaches the deepest level, so a cell above it without a
  // child node is corrupt; a fold's key order could not rank it.
  CountingTree::TestPeer::Child(*tree_, CellRef{1, 2}) = -1;
  EXPECT_EQ(Message(),
            "tree invariant violated: node 0: cell 2: no child node above "
            "the deepest level");
}

// ---- LevelView: the sanctioned bulk read API over the SoA arenas.

TEST(LevelViewTest, SpansAgreeWithSingleCellAccessors) {
  Dataset d = testing::UniformDataset(500, 3, 21);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const CellRef ref = level.ref(i);
      EXPECT_EQ(ref.level, h);
      EXPECT_EQ(ref.index, i);
      EXPECT_EQ(level.counts()[i], tree->Count(ref));
      EXPECT_EQ(level.locs()[i], tree->Loc(ref));
      EXPECT_EQ(level.children()[i], tree->Child(ref));
      EXPECT_EQ(level.used()[i] != 0, tree->Used(ref));
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(level.half_of(i)[j], tree->HalfCount(ref, j));
      }
      EXPECT_EQ(level.Coords(i), tree->CellCoords(ref));
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

TEST(LevelViewTest, UsedSpanReflectsSetUsed) {
  Dataset d = testing::UniformDataset(100, 2, 23);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const CountingTree::LevelView level = tree->Level(1);
  ASSERT_GT(level.num_cells(), 0u);
  tree->SetUsed(level.ref(0), true);
  EXPECT_NE(level.used()[0], 0);
  tree->SetUsed(level.ref(0), false);
  EXPECT_EQ(level.used()[0], 0);
}

}  // namespace
}  // namespace mrcc

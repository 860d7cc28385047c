#include "core/laplacian_mask.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "reference_grid.h"
#include "test_util.h"

namespace mrcc {
namespace {

using testing::ReferenceGrid;

size_t Pow3(size_t d) {
  size_t p = 1;
  for (size_t i = 0; i < d; ++i) p *= 3;
  return p;
}

// The reference's masks are the paper's Fig. 2: the engine's responses
// are checked against sums over these weights.
TEST(DenseMaskTest, FaceMaskStructure) {
  for (size_t d : {1, 2, 3}) {
    const auto offsets = ReferenceGrid::Offsets(d, /*full_mask=*/false);
    ASSERT_EQ(offsets.size(), Pow3(d));
    size_t center = 0, faces = 0, zeros = 0;
    int64_t sum = 0;
    for (const std::vector<int>& o : offsets) {
      const int64_t w = ReferenceGrid::MaskWeight(o, false);
      sum += w;
      if (w == 2 * static_cast<int64_t>(d)) {
        ++center;
      } else if (w == -1) {
        ++faces;
      } else if (w == 0) {
        ++zeros;
      } else {
        FAIL() << "unexpected weight " << w;
      }
    }
    EXPECT_EQ(center, 1u);
    EXPECT_EQ(faces, 2 * d);
    EXPECT_EQ(zeros, Pow3(d) - 2 * d - 1);
    EXPECT_EQ(sum, 0);  // A Laplacian mask sums to zero.
  }
}

TEST(DenseMaskTest, FullMaskStructure) {
  for (size_t d : {1, 2, 3}) {
    const auto offsets = ReferenceGrid::Offsets(d, /*full_mask=*/true);
    ASSERT_EQ(offsets.size(), Pow3(d));
    int64_t sum = 0;
    for (const std::vector<int>& o : offsets) {
      sum += ReferenceGrid::MaskWeight(o, true);
    }
    EXPECT_EQ(sum, 0);
    // 2-d case is the classic 8/-1 mask of the paper's Fig. 2a.
    if (d == 2) {
      EXPECT_EQ(ReferenceGrid::MaskWeight(offsets[4], true), 8);  // Centre.
      EXPECT_EQ(ReferenceGrid::MaskWeight(offsets[0], true), -1);
    }
  }
}

// Every cell's LaplacianConvolveLevel response against the grid's dense
// mask sum, on every level.
void ExpectLevelsMatchGrid(const Dataset& data, int resolutions,
                           bool full_mask, int threads) {
  Result<CountingTree> tree = CountingTree::Build(data, resolutions);
  ASSERT_TRUE(tree.ok());
  const ReferenceGrid grid(data, resolutions);
  ThreadPool pool(threads);
  for (int h = 1; h < resolutions; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    const LevelKeys keys(level);
    std::vector<int64_t> response(level.num_cells(), -1);
    LaplacianConvolveLevel(keys, full_mask, pool, response.data());
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      EXPECT_EQ(response[i], grid.Response(h, level.Coords(i), full_mask))
          << "h=" << h << " i=" << i;
    }
  }
}

TEST(ConvolveTest, FaceConvolutionMatchesDenseMask) {
  ExpectLevelsMatchGrid(testing::UniformDataset(500, 3, 21), 4,
                        /*full_mask=*/false, 1);
}

TEST(ConvolveTest, FullConvolutionMatchesDenseMask) {
  ExpectLevelsMatchGrid(testing::UniformDataset(300, 2, 31), 4,
                        /*full_mask=*/true, 1);
}

// The whole-level merge-join convolutions split their offsets across
// workers; every split agrees with the single-cell sums.
TEST(ConvolveTest, BatchedRangesMatchSingleCellForms) {
  const Dataset data = testing::UniformDataset(800, 3, 41);
  for (int threads : {2, 4}) {
    ExpectLevelsMatchGrid(data, 4, /*full_mask=*/false, threads);
    ExpectLevelsMatchGrid(data, 4, /*full_mask=*/true, threads);
  }
}

// Responses of the materialized cells of level h, by coordinates.
std::vector<std::pair<std::vector<uint64_t>, int64_t>> LevelResponses(
    const CountingTree& tree, int h) {
  const CountingTree::LevelView level = tree.Level(h);
  const LevelKeys keys(level);
  std::vector<int64_t> response(level.num_cells());
  ThreadPool pool(1);
  LaplacianConvolveLevel(keys, /*full_mask=*/false, pool, response.data());
  std::vector<std::pair<std::vector<uint64_t>, int64_t>> out;
  for (uint32_t i = 0; i < level.num_cells(); ++i) {
    out.emplace_back(level.Coords(i), response[i]);
  }
  return out;
}

TEST(ConvolveTest, IsolatedDenseCellGetsMaximalResponse) {
  // All points in one tiny region: its cell response is 2d * n, and the
  // one populated face neighbour, holding a single point, subtracts it.
  std::vector<std::vector<double>> points(32, {0.1, 0.1});
  points.push_back({0.3, 0.1});
  Result<CountingTree> tree =
      CountingTree::Build(testing::MakeDataset(points), 4);
  ASSERT_TRUE(tree.ok());
  // Level 2: cell (0, 0) holds 32 points, cell (1, 0) one.
  using Responses = std::vector<std::pair<std::vector<uint64_t>, int64_t>>;
  EXPECT_EQ(LevelResponses(*tree, 2),
            (Responses{{{0, 0}, 2 * 2 * 32 - 1}, {{1, 0}, 2 * 2 * 1 - 32}}));
}

TEST(ConvolveTest, UniformGridResponseIsNearZero) {
  // A full regular grid: each interior cell holds exactly one point, so
  // the Laplacian response of an interior cell is 2d - 2d = 0.
  std::vector<std::vector<double>> points;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      points.push_back({(x + 0.5) / 8.0, (y + 0.5) / 8.0});
    }
  }
  Result<CountingTree> tree =
      CountingTree::Build(testing::MakeDataset(points), 4);
  ASSERT_TRUE(tree.ok());
  for (const auto& [coords, response] : LevelResponses(*tree, 3)) {
    // Each cell on the border misses one neighbour per border axis.
    int64_t missing = 0;
    for (uint64_t c : coords) missing += (c == 0) + (c == 7);
    EXPECT_EQ(response, missing) << coords[0] << "," << coords[1];
  }
}

}  // namespace
}  // namespace mrcc

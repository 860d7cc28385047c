#include "core/laplacian_mask.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "test_util.h"

namespace mrcc {
namespace {

size_t Pow3(size_t d) {
  size_t p = 1;
  for (size_t i = 0; i < d; ++i) p *= 3;
  return p;
}

TEST(DenseMaskTest, FaceMaskStructure) {
  for (size_t d : {1, 2, 3}) {
    const auto mask = DenseFaceMask(d);
    ASSERT_EQ(mask.size(), Pow3(d));
    size_t center = 0, faces = 0, zeros = 0;
    for (int64_t w : mask) {
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
    // A Laplacian mask sums to zero.
    EXPECT_EQ(std::accumulate(mask.begin(), mask.end(), int64_t{0}), 0);
  }
}

TEST(DenseMaskTest, FullMaskStructure) {
  for (size_t d : {1, 2, 3}) {
    const auto mask = DenseFullMask(d);
    ASSERT_EQ(mask.size(), Pow3(d));
    EXPECT_EQ(std::accumulate(mask.begin(), mask.end(), int64_t{0}), 0);
    // 2-d case is the classic 8/-1 mask of the paper's Fig. 2a.
    if (d == 2) {
      EXPECT_EQ(mask[4], 8);  // Center of the 3x3 grid in odometer order.
    }
  }
}

// Reference convolution via the dense mask and brute-force cell counts.
int64_t DenseConvolve(const CountingTree& tree, int level,
                      const std::vector<uint64_t>& coords,
                      const std::vector<int64_t>& mask, size_t d) {
  const uint64_t max_coord = (uint64_t{1} << level) - 1;
  int64_t acc = 0;
  std::vector<uint64_t> probe(d);
  for (size_t code = 0; code < mask.size(); ++code) {
    size_t rem = code;
    bool in_bounds = true;
    for (size_t j = d; j-- > 0;) {
      const int off = static_cast<int>(rem % 3) - 1;
      rem /= 3;
      if ((off < 0 && coords[j] == 0) || (off > 0 && coords[j] == max_coord)) {
        in_bounds = false;
      }
      probe[j] = coords[j] + static_cast<uint64_t>(static_cast<int64_t>(off));
    }
    if (!in_bounds || mask[code] == 0) continue;
    CountingTree::CellRef ref;
    if (tree.FindCell(level, probe, &ref)) {
      acc += mask[code] * static_cast<int64_t>(tree.Count(ref));
    }
  }
  return acc;
}

TEST(ConvolveTest, FaceConvolutionMatchesDenseMask) {
  Dataset data = testing::UniformDataset(500, 3, 21);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const auto mask = DenseFaceMask(3);
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const auto coords = level.Coords(i);
      EXPECT_EQ(FaceLaplacianConvolve(*tree, h, coords, level.counts()[i]),
                DenseConvolve(*tree, h, coords, mask, 3));
    }
  }
}

TEST(ConvolveTest, FullConvolutionMatchesDenseMask) {
  Dataset data = testing::UniformDataset(300, 2, 31);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const auto mask = DenseFullMask(2);
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const auto coords = level.Coords(i);
      EXPECT_EQ(FullLaplacianConvolve(*tree, h, coords, level.counts()[i]),
                DenseConvolve(*tree, h, coords, mask, 2));
    }
  }
}

// The whole-level merge-join convolutions (the β-search hot path) must
// agree cell for cell with the single-cell forms.
TEST(ConvolveTest, BatchedRangesMatchSingleCellForms) {
  Dataset data = testing::UniformDataset(800, 3, 41);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  for (int h = 1; h < 4; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    const LevelKeys keys(level);
    const size_t cells = level.num_cells();
    std::vector<int64_t> face(cells, -1), full(cells, -1);
    ThreadPool pool(2);
    LaplacianConvolveLevel(keys, /*full_mask=*/false, pool, face.data());
    LaplacianConvolveLevel(keys, /*full_mask=*/true, pool, full.data());
    for (uint32_t i = 0; i < cells; ++i) {
      const auto coords = level.Coords(i);
      EXPECT_EQ(face[i],
                FaceLaplacianConvolve(*tree, h, coords, level.counts()[i]))
          << "h=" << h << " i=" << i;
      EXPECT_EQ(full[i],
                FullLaplacianConvolve(*tree, h, coords, level.counts()[i]))
          << "h=" << h << " i=" << i;
    }
  }
}

TEST(ConvolveTest, IsolatedDenseCellGetsMaximalResponse) {
  // All points in one tiny region: its cell response is 2d * n, any
  // neighbor response is negative.
  std::vector<std::vector<double>> points(32, {0.1, 0.1});
  Dataset data = testing::MakeDataset(points);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  // Level 2: all mass in cell (0, 0).
  EXPECT_EQ(FaceLaplacianConvolve(*tree, 2, {0, 0}, 32), 2 * 2 * 32);
  // Its face neighbor sees only the negative contribution.
  EXPECT_EQ(FaceLaplacianConvolve(*tree, 2, {1, 0}, 0), -32);
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
  Dataset data = testing::MakeDataset(points);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  // Interior cell at level 3.
  EXPECT_EQ(FaceLaplacianConvolve(*tree, 3, {3, 3}, 1), 0);
  // Corner cell: two neighbors missing -> positive response.
  EXPECT_EQ(FaceLaplacianConvolve(*tree, 3, {0, 0}, 1), 2);
}

}  // namespace
}  // namespace mrcc

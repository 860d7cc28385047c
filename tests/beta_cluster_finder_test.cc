#include "core/beta_cluster_finder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tree_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

// A dataset with one tight blob at `center` over `relevant` axes (uniform
// elsewhere) plus uniform noise.
Dataset BlobDataset(size_t n_blob, size_t n_noise, size_t dims,
                    const std::vector<size_t>& relevant_axes, double center,
                    uint64_t seed) {
  Rng rng(seed);
  Dataset d(n_blob + n_noise, dims);
  for (size_t i = 0; i < n_blob; ++i) {
    for (size_t j = 0; j < dims; ++j) d(i, j) = rng.UniformDouble();
    for (size_t j : relevant_axes) {
      d(i, j) = center + rng.Normal(0.0, 0.01);
    }
  }
  for (size_t i = n_blob; i < n_blob + n_noise; ++i) {
    for (size_t j = 0; j < dims; ++j) d(i, j) = rng.UniformDouble();
  }
  return d;
}

TEST(BetaClusterTest, SharesSpaceWithRequiresAllAxesPositiveOverlap) {
  BetaCluster a, b;
  a.lower = {0.0, 0.0};
  a.upper = {0.5, 0.5};
  b.lower = {0.25, 0.25};
  b.upper = {0.75, 0.75};
  EXPECT_TRUE(a.SharesSpaceWith(b));
  EXPECT_TRUE(b.SharesSpaceWith(a));

  // Touching at a face is measure-zero, not shared space.
  b.lower = {0.5, 0.0};
  b.upper = {1.0, 1.0};
  EXPECT_FALSE(a.SharesSpaceWith(b));

  // Overlap on one axis only is not shared space.
  b.lower = {0.25, 0.75};
  b.upper = {0.75, 1.0};
  EXPECT_FALSE(a.SharesSpaceWith(b));
}

TEST(BetaClusterTest, ContainsChecksEveryAxis) {
  BetaCluster b;
  b.lower = {0.2, 0.0};
  b.upper = {0.4, 1.0};
  const std::vector<double> inside{0.3, 0.99};
  const std::vector<double> outside{0.5, 0.5};
  EXPECT_TRUE(b.Contains(inside));
  EXPECT_FALSE(b.Contains(outside));
}

TEST(BetaFinderTest, FindsPlantedBlobWithCorrectAxes) {
  // Blob concentrated on axes {1, 3} of a 5-d space.
  Dataset d = BlobDataset(1200, 300, 5, {1, 3}, 0.62, 17);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  options.alpha = 1e-10;
  const auto betas = FindBetaClusters(*tree, options);
  ASSERT_FALSE(betas.empty());

  const BetaCluster& first = betas.front();
  // The strongest beta-cluster pins the blob's axes.
  EXPECT_TRUE(first.relevant[1]);
  EXPECT_TRUE(first.relevant[3]);
  // Its box contains the blob center on those axes.
  EXPECT_LE(first.lower[1], 0.62);
  EXPECT_GE(first.upper[1], 0.62);
  EXPECT_LE(first.lower[3], 0.62);
  EXPECT_GE(first.upper[3], 0.62);
  // Uniform axes of the blob should not all be flagged.
  int spurious = 0;
  for (size_t j : {0u, 2u, 4u}) {
    if (first.relevant[j]) ++spurious;
  }
  EXPECT_LE(spurious, 1);
}

TEST(BetaFinderTest, UniformNoiseYieldsNoBetaClusters) {
  Dataset d = testing::UniformDataset(5000, 6, 23);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  options.alpha = 1e-10;
  const auto betas = FindBetaClusters(*tree, options);
  EXPECT_TRUE(betas.empty());
}

TEST(BetaFinderTest, DeterministicAcrossRuns) {
  Dataset d = BlobDataset(800, 400, 4, {0, 2}, 0.3, 5);
  BetaFinderOptions options;
  Result<CountingTree> t1 = CountingTree::Build(d, 4);
  Result<CountingTree> t2 = CountingTree::Build(d, 4);
  ASSERT_TRUE(t1.ok() && t2.ok());
  const auto a = FindBetaClusters(*t1, options);
  const auto b = FindBetaClusters(*t2, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lower, b[i].lower);
    EXPECT_EQ(a[i].upper, b[i].upper);
    EXPECT_EQ(a[i].relevant, b[i].relevant);
    EXPECT_EQ(a[i].level, b[i].level);
  }
}

// The search keeps its eligibility flags to itself: the tree's bytes and
// footprint are the same after a search, and searching it again finds
// the same β-clusters.
TEST(BetaFinderTest, SearchLeavesTheTreeUntouched) {
  Dataset d = BlobDataset(800, 200, 4, {1, 2}, 0.4, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);
  const size_t memory = tree->MemoryBytes();
  BetaFinderOptions options;
  const auto first = FindBetaClusters(*tree, options);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(SerializeTree(*tree), bytes);
  EXPECT_EQ(tree->MemoryBytes(), memory);
  const auto second = FindBetaClusters(*tree, options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].lower, second[i].lower);
    EXPECT_EQ(first[i].upper, second[i].upper);
    EXPECT_EQ(first[i].relevant, second[i].relevant);
    EXPECT_EQ(first[i].level, second[i].level);
    EXPECT_EQ(first[i].center_count, second[i].center_count);
  }
}

TEST(BetaFinderTest, LooserAlphaFindsAtLeastAsManyBetas) {
  LabeledDataset ds = testing::SmallClustered(6000, 8, 4, 31);
  Result<CountingTree> t1 = CountingTree::Build(ds.data, 4);
  Result<CountingTree> t2 = CountingTree::Build(ds.data, 4);
  ASSERT_TRUE(t1.ok() && t2.ok());
  BetaFinderOptions strict;
  strict.alpha = 1e-30;
  BetaFinderOptions loose;
  loose.alpha = 1e-4;
  const auto strict_betas = FindBetaClusters(*t1, strict);
  const auto loose_betas = FindBetaClusters(*t2, loose);
  EXPECT_GE(loose_betas.size(), strict_betas.size());
}

TEST(BetaFinderTest, BoxesOfDistinctBlobsDoNotOverlap) {
  // Two far-apart blobs on the same axes must yield disjoint boxes.
  Rng rng(3);
  Dataset d(2000, 4);
  for (size_t i = 0; i < 1000; ++i) {
    for (size_t j = 0; j < 4; ++j) d(i, j) = rng.UniformDouble();
    d(i, 0) = 0.15 + rng.Normal(0.0, 0.01);
    d(i, 1) = 0.15 + rng.Normal(0.0, 0.01);
  }
  for (size_t i = 1000; i < 2000; ++i) {
    for (size_t j = 0; j < 4; ++j) d(i, j) = rng.UniformDouble();
    d(i, 0) = 0.85 + rng.Normal(0.0, 0.01);
    d(i, 1) = 0.85 + rng.Normal(0.0, 0.01);
  }
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  const auto betas = FindBetaClusters(*tree, options);
  ASSERT_GE(betas.size(), 2u);
  EXPECT_FALSE(betas[0].SharesSpaceWith(betas[1]));
}

TEST(BetaFinderTest, BoxGrowthIgnoresSparseNoiseNeighbors) {
  // A blob confined to one level-2 cell with thin uniform noise around it:
  // the box on the blob's axes must not be inflated to 3 cells by noise-
  // only neighbors (the growth floor; see DESIGN.md §5).
  Rng rng(47);
  Dataset d(2200, 3);
  for (size_t i = 0; i < 2000; ++i) {
    // Center of cell (1,1) at level 2: [0.25, 0.5) x [0.25, 0.5).
    d(i, 0) = 0.375 + rng.Normal(0.0, 0.012);
    d(i, 1) = 0.375 + rng.Normal(0.0, 0.012);
    d(i, 2) = rng.UniformDouble();
  }
  for (size_t i = 2000; i < 2200; ++i) {
    for (size_t j = 0; j < 3; ++j) d(i, j) = rng.UniformDouble();
  }
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  const auto betas = FindBetaClusters(*tree, options);
  ASSERT_FALSE(betas.empty());
  const BetaCluster& first = betas.front();
  ASSERT_TRUE(first.relevant[0]);
  ASSERT_TRUE(first.relevant[1]);
  // The blob sits in one cell; noise neighbors must not triple the width.
  EXPECT_LE(first.upper[0] - first.lower[0], 0.25 + 1e-12);
  EXPECT_LE(first.upper[1] - first.lower[1], 0.25 + 1e-12);
}

TEST(BetaFinderTest, BorderNullUsesFourRegions) {
  // Uniform data in few dimensions: at level 2 every parent is at the
  // space border (two level-1 cells per axis). With the naive 1/6 null the
  // central quarter-slab would *always* reject on large counts; the
  // region-adjusted null must keep uniform data insignificant.
  Dataset d = testing::UniformDataset(40000, 3, 53);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  options.alpha = 1e-10;
  EXPECT_TRUE(FindBetaClusters(*tree, options).empty());
}

TEST(BetaFinderTest, FullMaskOptionFindsTheSameBlob) {
  Dataset d = BlobDataset(1000, 300, 4, {0, 2}, 0.4, 77);
  Result<CountingTree> t1 = CountingTree::Build(d, 4);
  Result<CountingTree> t2 = CountingTree::Build(d, 4);
  ASSERT_TRUE(t1.ok() && t2.ok());
  BetaFinderOptions face;
  BetaFinderOptions full;
  full.full_mask = true;
  const auto a = FindBetaClusters(*t1, face);
  const auto b = FindBetaClusters(*t2, full);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_TRUE(a.front().relevant[0]);
  EXPECT_TRUE(b.front().relevant[0]);
  EXPECT_TRUE(a.front().relevant[2]);
  EXPECT_TRUE(b.front().relevant[2]);
}

TEST(BetaFinderTest, RelevanceDiagnosticsPopulated) {
  Dataset d = BlobDataset(1000, 200, 4, {0}, 0.5, 41);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  BetaFinderOptions options;
  const auto betas = FindBetaClusters(*tree, options);
  ASSERT_FALSE(betas.empty());
  for (const auto& beta : betas) {
    ASSERT_EQ(beta.relevance.size(), 4u);
    for (double r : beta.relevance) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 100.0);
    }
    EXPECT_GE(beta.level, 2);
    EXPECT_GT(beta.center_count, 0u);
  }
}

// A corrupt tree whose level-2 cells have no parent cell ends the search
// with Internal instead of aborting the process.
TEST(BetaFinderTest, MissingParentCellIsInternalError) {
  Rng rng(3);
  Dataset d(400, 3);
  for (size_t i = 0; i < 400; ++i) {
    for (size_t j = 0; j < 3; ++j) d(i, j) = 0.45 * rng.UniformDouble();
  }
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  // Every point lies in level-1 cell (0, 0, 0); move it to (1, 0, 0).
  ASSERT_EQ(tree->NumCellsAtLevel(1), 1u);
  CountingTree::TestPeer::Loc(*tree, CountingTree::CellRef{1, 0}) ^= 1;
  const Result<BetaSearchResult> result =
      RunBetaSearch(*tree, BetaFinderOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("no parent cell"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace mrcc

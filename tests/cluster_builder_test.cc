#include "core/cluster_builder.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"

namespace mrcc {
namespace {

BetaCluster MakeBeta(std::vector<double> lower, std::vector<double> upper,
                     std::vector<bool> relevant) {
  BetaCluster b;
  b.lower = std::move(lower);
  b.upper = std::move(upper);
  b.relevant = std::move(relevant);
  return b;
}

TEST(ClusterBuilderTest, EmptyBetasMeansAllNoise) {
  Dataset d = testing::UniformDataset(10, 2, 1);
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters({}, d.NumDims(), &b2c);
  Result<std::vector<int>> labels = LabelPoints({}, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.NumClusters(), 0u);
  EXPECT_EQ(c.NumNoisePoints(), 10u);
}

TEST(ClusterBuilderTest, DisjointBetasStayDistinct) {
  Dataset d = testing::MakeDataset({{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.25, 0.25}, {true, true}));
  betas.push_back(MakeBeta({0.75, 0.75}, {1.0, 1.0}, {true, true}));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, d.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.NumClusters(), 2u);
  EXPECT_EQ(c.labels[0], 0);
  EXPECT_EQ(c.labels[1], 1);
  EXPECT_EQ(c.labels[2], kNoiseLabel);
  EXPECT_EQ(b2c, (std::vector<int>{0, 1}));
}

TEST(ClusterBuilderTest, OverlappingBetasMerge) {
  Dataset d = testing::MakeDataset({{0.2, 0.2}, {0.4, 0.4}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.3, 0.3}, {true, false}));
  betas.push_back(MakeBeta({0.25, 0.25}, {0.5, 0.5}, {false, true}));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, d.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.NumClusters(), 1u);
  EXPECT_EQ(c.labels[0], 0);
  EXPECT_EQ(c.labels[1], 0);
  // Relevant axes are the union over the merged beta-clusters.
  EXPECT_TRUE(c.clusters[0].relevant_axes[0]);
  EXPECT_TRUE(c.clusters[0].relevant_axes[1]);
}

TEST(ClusterBuilderTest, TransitiveMergeAcrossChain) {
  Dataset d = testing::MakeDataset({{0.05, 0.5}});
  std::vector<BetaCluster> betas;
  // a overlaps b, b overlaps c, a does not overlap c -> all in one cluster.
  betas.push_back(MakeBeta({0.0, 0.0}, {0.3, 1.0}, {true, false}));
  betas.push_back(MakeBeta({0.2, 0.0}, {0.6, 1.0}, {true, false}));
  betas.push_back(MakeBeta({0.5, 0.0}, {0.9, 1.0}, {true, false}));
  EXPECT_FALSE(betas[0].SharesSpaceWith(betas[2]));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, d.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.NumClusters(), 1u);
  EXPECT_EQ(b2c, (std::vector<int>{0, 0, 0}));
}

TEST(ClusterBuilderTest, PointInNoBoxIsNoise) {
  Dataset d = testing::MakeDataset({{0.99, 0.01}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.5, 0.5}, {true, true}));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, d.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.labels[0], kNoiseLabel);
}

TEST(ClusterBuilderTest, IrrelevantAxesDoNotRestrictMembership) {
  Dataset d = testing::MakeDataset({{0.2, 0.95}});
  std::vector<BetaCluster> betas;
  // Axis 1 irrelevant: bounds [0, 1].
  betas.push_back(MakeBeta({0.1, 0.0}, {0.3, 1.0}, {true, false}));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, d.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(d));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_EQ(c.labels[0], 0);
}

TEST(ClusterBuilderTest, ResultValidates) {
  LabeledDataset ds = testing::SmallClustered(2000, 6, 3, 77);
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                           {0.5, 1.0, 1.0, 1.0, 1.0, 1.0},
                           {true, false, false, false, false, false}));
  std::vector<int> b2c;
  Clustering c = MergeBetaClusters(betas, ds.data.NumDims(), &b2c);
  Result<std::vector<int>> labels =
      LabelPoints(betas, b2c, MemoryDataSource(ds.data));
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  c.labels = std::move(*labels);
  EXPECT_TRUE(c.Validate(ds.data.NumPoints(), ds.data.NumDims()).ok());
}

// Rows with NaN coordinates go through the build's ingest step: the
// box test alone would put a NaN row inside every box (both of its
// compares are false), so an unchecked NaN row would take a label.
TEST(ClusterBuilderTest, NaNRowsFollowTheBadPointPolicy) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Dataset d = testing::MakeDataset(
      {{0.9, 0.9}, {kNaN, 0.9}, {kNaN, kNaN}, {0.1, 0.1}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.25, 0.25}, {true, true}));
  std::vector<int> b2c;
  MergeBetaClusters(betas, d.NumDims(), &b2c);
  const MemoryDataSource source(d);

  const Result<std::vector<int>> rejected =
      LabelPoints(betas, b2c, source, 1, BadPointPolicy::kReject);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("point 1 of"),
            std::string::npos)
      << rejected.status().ToString();

  for (const BadPointPolicy policy :
       {BadPointPolicy::kSkip, BadPointPolicy::kClamp}) {
    const Result<std::vector<int>> labels =
        LabelPoints(betas, b2c, source, 1, policy);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ(*labels,
              (std::vector<int>{kNoiseLabel, kNoiseLabel, kNoiseLabel, 0}))
        << BadPointPolicyName(policy);
  }
}

}  // namespace
}  // namespace mrcc

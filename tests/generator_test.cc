#include "data/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <tuple>

namespace mrcc {
namespace {

SyntheticConfig BaseConfig() {
  SyntheticConfig c;
  c.num_points = 5000;
  c.num_dims = 8;
  c.num_clusters = 4;
  c.noise_fraction = 0.2;
  c.min_cluster_dims = 3;
  c.max_cluster_dims = 7;
  c.seed = 11;
  return c;
}

TEST(GeneratorTest, ProducesRequestedShape) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data.NumPoints(), 5000u);
  EXPECT_EQ(r->data.NumDims(), 8u);
  EXPECT_EQ(r->truth.NumClusters(), 4u);
  EXPECT_EQ(r->truth.labels.size(), 5000u);
}

TEST(GeneratorTest, DataInsideUnitCube) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->data.InUnitCube());
}

TEST(GeneratorTest, DeterministicForEqualSeeds) {
  Result<LabeledDataset> a = GenerateSynthetic(BaseConfig());
  Result<LabeledDataset> b = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->truth.labels, b->truth.labels);
  for (size_t i = 0; i < a->data.NumPoints(); ++i) {
    for (size_t j = 0; j < a->data.NumDims(); ++j) {
      ASSERT_DOUBLE_EQ(a->data(i, j), b->data(i, j));
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  SyntheticConfig c2 = BaseConfig();
  c2.seed = 12;
  Result<LabeledDataset> a = GenerateSynthetic(BaseConfig());
  Result<LabeledDataset> b = GenerateSynthetic(c2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->truth.labels, b->truth.labels);
}

TEST(GeneratorTest, NoiseFractionApproximatelyRespected) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  const double frac =
      static_cast<double>(r->truth.NumNoisePoints()) / r->data.NumPoints();
  EXPECT_NEAR(frac, 0.2, 0.005);
}

TEST(GeneratorTest, ClusterDimensionalityWithinBounds) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  for (const ClusterInfo& info : r->truth.clusters) {
    const size_t delta = info.Dimensionality();
    EXPECT_GE(delta, 3u);
    EXPECT_LE(delta, 7u);
  }
}

TEST(GeneratorTest, ClusterMembersAreConcentratedOnRelevantAxes) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  // For each cluster, the member variance along relevant axes must be
  // far below the uniform variance (1/12) and the irrelevant axes near it.
  for (size_t c = 0; c < r->truth.NumClusters(); ++c) {
    const auto members = r->truth.Members(static_cast<int>(c));
    ASSERT_GT(members.size(), 10u);
    for (size_t j = 0; j < r->data.NumDims(); ++j) {
      double mean = 0.0, sq = 0.0;
      for (size_t i : members) {
        mean += r->data(i, j);
        sq += r->data(i, j) * r->data(i, j);
      }
      mean /= static_cast<double>(members.size());
      const double var = sq / static_cast<double>(members.size()) - mean * mean;
      if (r->truth.clusters[c].relevant_axes[j]) {
        EXPECT_LT(var, 0.01) << "cluster " << c << " axis " << j;
      } else {
        EXPECT_GT(var, 0.04) << "cluster " << c << " axis " << j;
      }
    }
  }
}

TEST(GeneratorTest, TruthValidates) {
  Result<LabeledDataset> r = GenerateSynthetic(BaseConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth.Validate(r->data.NumPoints(), r->data.NumDims()).ok());
}

TEST(GeneratorTest, ExplicitClusterWeightsControlSizes) {
  SyntheticConfig c = BaseConfig();
  c.num_clusters = 2;
  c.noise_fraction = 0.0;
  c.cluster_weights = {3.0, 1.0};
  Result<LabeledDataset> r = GenerateSynthetic(c);
  ASSERT_TRUE(r.ok());
  const double s0 = static_cast<double>(r->truth.Members(0).size());
  const double s1 = static_cast<double>(r->truth.Members(1).size());
  EXPECT_NEAR(s0 / s1, 3.0, 0.1);
}

TEST(GeneratorTest, RotationKeepsCubeAndLabels) {
  SyntheticConfig c = BaseConfig();
  c.num_rotations = 4;
  Result<LabeledDataset> r = GenerateSynthetic(c);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->data.InUnitCube());
  EXPECT_EQ(r->truth.labels.size(), c.num_points);
  // Rotation must change the coordinates relative to the unrotated twin.
  SyntheticConfig plain = BaseConfig();
  Result<LabeledDataset> base = GenerateSynthetic(plain);
  ASSERT_TRUE(base.ok());
  bool any_diff = false;
  for (size_t j = 0; j < c.num_dims && !any_diff; ++j) {
    if (std::fabs(r->data(0, j) - base->data(0, j)) > 1e-6) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// Invalid-config sweep. Each case carries a fixed label that gtest prints
// as the parameter value, so the discovered test names are stable from run
// to run (the default byte dump of SyntheticConfig includes heap addresses).
struct InvalidCase {
  const char* label;
  SyntheticConfig config;
};

void PrintTo(const InvalidCase& c, std::ostream* os) { *os << c.label; }

class GeneratorValidationTest : public ::testing::TestWithParam<InvalidCase> {
};

TEST_P(GeneratorValidationTest, RejectsInvalidConfig) {
  Result<LabeledDataset> r = GenerateSynthetic(GetParam().config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

InvalidCase Invalid(const char* label, void (*mutate)(SyntheticConfig&)) {
  SyntheticConfig c = BaseConfig();
  mutate(c);
  return {label, c};
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, GeneratorValidationTest,
    ::testing::Values(
        Invalid("num_dims_zero",
                [](SyntheticConfig& c) { c.num_dims = 0; }),
        Invalid("num_points_zero",
                [](SyntheticConfig& c) { c.num_points = 0; }),
        Invalid("noise_fraction_one",
                [](SyntheticConfig& c) { c.noise_fraction = 1.0; }),
        Invalid("noise_fraction_negative",
                [](SyntheticConfig& c) { c.noise_fraction = -0.1; }),
        Invalid("min_cluster_dims_zero",
                [](SyntheticConfig& c) { c.min_cluster_dims = 0; }),
        Invalid("min_cluster_dims_above_max",
                [](SyntheticConfig& c) {
                  c.min_cluster_dims = 5;
                  c.max_cluster_dims = 3;
                }),
        Invalid("min_stddev_zero",
                [](SyntheticConfig& c) { c.min_stddev = 0.0; }),
        Invalid("max_stddev_too_wide",
                [](SyntheticConfig& c) { c.max_stddev = 0.2; }),
        Invalid("cluster_weights_wrong_count",
                [](SyntheticConfig& c) { c.cluster_weights = {1.0}; }),
        Invalid("cluster_weights_negative", [](SyntheticConfig& c) {
          c.cluster_weights = {1.0, 1.0, 1.0, -1.0};
        })));

TEST(Kdd08LikeTest, ShapeAndImbalance) {
  Kdd08LikeConfig c;
  c.num_points = 10000;
  Result<Kdd08LikeDataset> r = GenerateKdd08Like(c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->labeled.data.NumPoints(), 10000u);
  EXPECT_EQ(r->labeled.data.NumDims(), 25u);
  EXPECT_EQ(r->class_labels.size(), 10000u);
  const size_t malignant = static_cast<size_t>(
      std::count(r->class_labels.begin(), r->class_labels.end(), 1));
  // Heavily imbalanced: near the configured 1%.
  EXPECT_GT(malignant, 20u);
  EXPECT_LT(malignant, 400u);
}

TEST(Kdd08LikeTest, MalignantPointsBelongToMalignantClusters) {
  Kdd08LikeConfig c;
  c.num_points = 8000;
  Result<Kdd08LikeDataset> r = GenerateKdd08Like(c);
  ASSERT_TRUE(r.ok());
  const int first_malignant = static_cast<int>(c.normal_clusters);
  for (size_t i = 0; i < r->class_labels.size(); ++i) {
    const int cluster = r->labeled.truth.labels[i];
    if (r->class_labels[i] == 1) {
      EXPECT_GE(cluster, first_malignant);
    } else {
      EXPECT_LT(cluster, first_malignant);
    }
  }
}

}  // namespace
}  // namespace mrcc

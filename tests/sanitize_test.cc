#include "data/sanitize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/mrcc.h"
#include "test_util.h"

namespace mrcc {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SanitizeUnitTest, PointInUnitCubeRejectsNaNAndBounds) {
  std::vector<double> clean = {0.0, 0.5, 0.999999};
  EXPECT_TRUE(PointInUnitCube(clean));
  std::vector<double> at_one = {0.5, 1.0};
  EXPECT_FALSE(PointInUnitCube(at_one));
  std::vector<double> negative = {-0.0001, 0.5};
  EXPECT_FALSE(PointInUnitCube(negative));
  std::vector<double> nan = {0.5, kNaN};
  EXPECT_FALSE(PointInUnitCube(nan));
}

TEST(SanitizeUnitTest, ClassifyFollowsThePolicy) {
  std::vector<double> clean = {0.2, 0.8};
  std::vector<double> out_of_range = {1.5, 0.5};
  std::vector<double> non_finite = {0.5, kInf};
  for (const BadPointPolicy policy :
       {BadPointPolicy::kReject, BadPointPolicy::kClamp,
        BadPointPolicy::kSkip}) {
    EXPECT_EQ(ClassifyPoint(clean, policy), PointAction::kKeep);
  }
  EXPECT_EQ(ClassifyPoint(out_of_range, BadPointPolicy::kReject),
            PointAction::kReject);
  EXPECT_EQ(ClassifyPoint(out_of_range, BadPointPolicy::kSkip),
            PointAction::kSkip);
  EXPECT_EQ(ClassifyPoint(out_of_range, BadPointPolicy::kClamp),
            PointAction::kClamp);
  // Non-finite values cannot be clamped anywhere meaningful: skipped.
  EXPECT_EQ(ClassifyPoint(non_finite, BadPointPolicy::kClamp),
            PointAction::kSkip);
  std::vector<double> nan = {kNaN, 0.5};
  EXPECT_EQ(ClassifyPoint(nan, BadPointPolicy::kClamp), PointAction::kSkip);
}

TEST(SanitizeUnitTest, SanitizeClampsIntoTheHalfOpenCube) {
  std::vector<double> p = {-0.5, 1.0, 2.75, 0.5};
  EXPECT_EQ(SanitizePoint(p, BadPointPolicy::kClamp), PointAction::kClamp);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_LT(p[1], 1.0);  // Exactly 1.0 lands strictly below 1.
  EXPECT_LT(p[2], 1.0);
  EXPECT_EQ(p[3], 0.5);
  EXPECT_TRUE(PointInUnitCube(p));
}

TEST(SanitizeUnitTest, PolicyNames) {
  EXPECT_STREQ(BadPointPolicyName(BadPointPolicy::kReject), "reject");
  EXPECT_STREQ(BadPointPolicyName(BadPointPolicy::kClamp), "clamp");
  EXPECT_STREQ(BadPointPolicyName(BadPointPolicy::kSkip), "skip");
}

// ---- End-to-end: each policy through the full MrCC pipeline.

Dataset DirtyDataset() {
  Dataset d = testing::UniformDataset(600, 3, 21);
  d(10, 0) = kNaN;       // Non-finite: skipped under clamp AND skip.
  d(20, 1) = 1.5;        // Finite out-of-range: clampable.
  d(30, 2) = -0.25;      // Finite out-of-range: clampable.
  d(40, 0) = kInf;       // Non-finite.
  return d;
}

TEST(SanitizePipelineTest, RejectPolicyFailsOnTheFirstBadPoint) {
  const Dataset d = DirtyDataset();
  MrCCParams params;  // kReject is the default.
  const Result<MrCCResult> result = MrCC(params).Run(d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SanitizePipelineTest, SkipPolicyCompletesAndCountsEveryDrop) {
  const Dataset d = DirtyDataset();
  MrCCParams params;
  params.bad_point_policy = BadPointPolicy::kSkip;
  const Result<MrCCResult> result = MrCC(params).Run(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.points_skipped, 4u);
  EXPECT_EQ(result->stats.points_clamped, 0u);
  // Skipped points were never counted, so they label as noise.
  ASSERT_EQ(result->clustering.labels.size(), 600u);
  EXPECT_EQ(result->clustering.labels[10], kNoiseLabel);
  EXPECT_EQ(result->clustering.labels[40], kNoiseLabel);
}

TEST(SanitizePipelineTest, ClampPolicyKeepsFinitePointsDropsNonFinite) {
  const Dataset d = DirtyDataset();
  MrCCParams params;
  params.bad_point_policy = BadPointPolicy::kClamp;
  const Result<MrCCResult> result = MrCC(params).Run(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.points_skipped, 2u);  // The NaN and Inf points.
  EXPECT_EQ(result->stats.points_clamped, 2u);
  EXPECT_EQ(result->clustering.labels[10], kNoiseLabel);
}

TEST(SanitizePipelineTest, CleanDataIsPolicyInvariant) {
  // On clean input every policy must produce the identical result —
  // the sanitizer may only ever touch bad points.
  const Dataset d = testing::SmallClustered(3000, 6, 2, 31).data;
  std::vector<std::vector<int>> labels;
  for (const BadPointPolicy policy :
       {BadPointPolicy::kReject, BadPointPolicy::kClamp,
        BadPointPolicy::kSkip}) {
    MrCCParams params;
    params.bad_point_policy = policy;
    const Result<MrCCResult> result = MrCC(params).Run(d);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.points_skipped, 0u);
    EXPECT_EQ(result->stats.points_clamped, 0u);
    EXPECT_FALSE(result->stats.degraded);
    labels.push_back(result->clustering.labels);
  }
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
}

TEST(SanitizePipelineTest, SkipAndClampCountsAreThreadInvariant) {
  // Every engine runs the one ingest step, so the window engine (a
  // window wider than the data) must count exactly what the batch build
  // counts, at every thread count.
  const Dataset d = DirtyDataset();
  for (const BadPointPolicy policy :
       {BadPointPolicy::kSkip, BadPointPolicy::kClamp}) {
    MrCCParams batch_params;
    batch_params.bad_point_policy = policy;
    const Result<MrCCResult> batch = MrCC(batch_params).Run(d);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->stats.points_skipped,
              policy == BadPointPolicy::kSkip ? 4u : 2u);
    EXPECT_EQ(batch->stats.points_clamped,
              policy == BadPointPolicy::kSkip ? 0u : 2u);
    for (const size_t window : {size_t{0}, size_t{10000}}) {
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(BadPointPolicyName(policy)) + " window=" +
                     std::to_string(window) +
                     " threads=" + std::to_string(threads));
        MrCCParams params = batch_params;
        params.num_threads = threads;
        params.window.points = window;
        Counter& skipped = MetricsRegistry::Global().counter(
            "input.points_skipped");
        Counter& clamped = MetricsRegistry::Global().counter(
            "input.points_clamped");
        const int64_t skipped_before = skipped.value();
        const int64_t clamped_before = clamped.value();
        const Result<MrCCResult> result = MrCC(params).Run(d);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->stats.points_skipped, batch->stats.points_skipped);
        EXPECT_EQ(result->stats.points_clamped, batch->stats.points_clamped);
        EXPECT_EQ(skipped.value() - skipped_before,
                  static_cast<int64_t>(batch->stats.points_skipped));
        EXPECT_EQ(clamped.value() - clamped_before,
                  static_cast<int64_t>(batch->stats.points_clamped));
        EXPECT_EQ(result->clustering.labels, batch->clustering.labels);
      }
    }
  }
}

}  // namespace
}  // namespace mrcc

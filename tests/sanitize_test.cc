#include "data/sanitize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/mrcc.h"
#include "test_util.h"

namespace mrcc {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// What IngestPoint decides for `values` under `policy` (no failpoint is
// armed, so the point arrives as given).
PointAction Ingest(std::vector<double> values, BadPointPolicy policy) {
  std::span<const double> point = values;
  std::vector<double> scratch;
  return IngestPoint(&point, policy, &scratch);
}

// A point is in the unit cube exactly when a kReject ingest keeps it: the
// cube is [0, 1)^d and holds no NaN.
TEST(SanitizeUnitTest, PointInUnitCubeRejectsNaNAndBounds) {
  EXPECT_EQ(Ingest({0.0, 0.5, 0.999999}, BadPointPolicy::kReject),
            PointAction::kKeep);
  EXPECT_EQ(Ingest({0.5, 1.0}, BadPointPolicy::kReject), PointAction::kReject);
  EXPECT_EQ(Ingest({-0.0001, 0.5}, BadPointPolicy::kReject),
            PointAction::kReject);
  EXPECT_EQ(Ingest({0.5, kNaN}, BadPointPolicy::kReject),
            PointAction::kReject);
}

TEST(SanitizeUnitTest, ClassifyFollowsThePolicy) {
  const std::vector<double> clean = {0.0, 0.5, 0.999999};
  const std::vector<double> out_of_range = {1.5, 0.5};
  const std::vector<double> at_one = {0.5, 1.0};  // The cube is half-open.
  const std::vector<double> negative = {-0.0001, 0.5};
  const std::vector<double> non_finite = {0.5, kInf};
  const std::vector<double> nan = {kNaN, 0.5};
  for (const BadPointPolicy policy :
       {BadPointPolicy::kReject, BadPointPolicy::kClamp,
        BadPointPolicy::kSkip}) {
    EXPECT_EQ(Ingest(clean, policy), PointAction::kKeep);
    for (const std::vector<double>& bad :
         {out_of_range, at_one, negative, non_finite, nan}) {
      if (policy == BadPointPolicy::kReject) {
        EXPECT_EQ(Ingest(bad, policy), PointAction::kReject);
      } else if (policy == BadPointPolicy::kSkip) {
        EXPECT_EQ(Ingest(bad, policy), PointAction::kSkip);
      }
    }
  }
  EXPECT_EQ(Ingest(out_of_range, BadPointPolicy::kClamp), PointAction::kClamp);
  EXPECT_EQ(Ingest(at_one, BadPointPolicy::kClamp), PointAction::kClamp);
  EXPECT_EQ(Ingest(negative, BadPointPolicy::kClamp), PointAction::kClamp);
  // Non-finite values cannot be clamped anywhere meaningful: skipped.
  EXPECT_EQ(Ingest(non_finite, BadPointPolicy::kClamp), PointAction::kSkip);
  EXPECT_EQ(Ingest(nan, BadPointPolicy::kClamp), PointAction::kSkip);
}

TEST(SanitizeUnitTest, SanitizeClampsIntoTheHalfOpenCube) {
  const std::vector<double> p = {-0.5, 1.0, 2.75, 0.5};
  std::span<const double> point = p;
  std::vector<double> scratch;
  EXPECT_EQ(IngestPoint(&point, BadPointPolicy::kClamp, &scratch),
            PointAction::kClamp);
  // The clamped copy lives in scratch; the caller's values are untouched.
  EXPECT_EQ(point.data(), scratch.data());
  EXPECT_EQ(p, (std::vector<double>{-0.5, 1.0, 2.75, 0.5}));
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(std::vector<double>(point.begin(), point.end()),
            (std::vector<double>{0.0, below_one, below_one, 0.5}));
  // A clean point is passed through as it is.
  const std::vector<double> clean = {0.25, 0.75};
  point = clean;
  EXPECT_EQ(IngestPoint(&point, BadPointPolicy::kClamp, &scratch),
            PointAction::kKeep);
  EXPECT_EQ(point.data(), clean.data());
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

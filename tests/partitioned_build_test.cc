// The batch build partitioned by key space (BuildTree in core/mrcc.h over
// CountingTree::BuildPartitioned): T workers scan T stream slices, one
// pass splits the records into T key ranges, each worker sorts and counts
// one range, and one layout writes the tree. At every worker count the
// tree's SerializeTree bytes must equal the serial build's and the
// point-at-a-time reference's (reference_tree.h), whatever the data does
// to the ranges: one range holding everything, fewer level-1 cells than
// workers, bad rows at the slice and range boundaries, or a pool that
// spawned fewer workers than asked.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "core/mrcc.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/sanitize.h"
#include "reference_tree.h"
#include "test_util.h"

namespace mrcc {
namespace {

using testing::ReferenceTree;

constexpr int kThreadCounts[] = {1, 2, 3, 4, 7};

// Enough points that every thread count above gets its workers: the
// batch build gives each worker at least 2048 points.
constexpr size_t kPoints = 7 * 2048 + 3;

struct Built {
  std::string bytes;
  MrCCStats stats;
};

/// The batch engine's tree over `data` at `threads` workers, serialized.
Built BuildBytes(const Dataset& data, const MrCCParams& params, int threads) {
  const MemoryDataSource source(data);
  Built built;
  Result<CountingTree> tree =
      BuildTree(source, 0, data.NumPoints(), params, threads,
                ChunkPointsFor(params, data.NumDims(), threads), &built.stats);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (tree.ok()) built.bytes = SerializeTree(*tree);
  return built;
}

/// The reference tree of the points IngestPoint keeps under `policy`.
std::string ReferenceBytes(const Dataset& data, int resolutions,
                           BadPointPolicy policy = BadPointPolicy::kReject) {
  ReferenceTree ref(data.NumDims(), resolutions);
  std::vector<double> scratch;
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    std::span<const double> point = data.Point(i);
    const PointAction action = IngestPoint(&point, policy, &scratch);
    if (action == PointAction::kSkip) continue;
    ref.Insert(point);
  }
  return ref.Serialize();
}

/// Expects every thread count to build `expected`'s bytes.
void ExpectEveryThreadCountMatches(const Dataset& data,
                                   const MrCCParams& params,
                                   const std::string& expected) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Built built = BuildBytes(data, params, threads);
    EXPECT_EQ(built.stats.tree_build_threads, threads);
    EXPECT_FALSE(built.stats.degraded);
    EXPECT_TRUE(built.bytes == expected) << "tree bytes differ";
  }
}

// Two 8-byte fields: no padding, so gtest's byte print of a parameter
// (and so every ctest name) is the same in every build.
struct Shape {
  size_t dims;
  size_t resolutions;
};
static_assert(std::has_unique_object_representations_v<Shape>);

class PartitionedBuildShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(PartitionedBuildShapeTest, EveryThreadCountBuildsTheSerialBytes) {
  const Shape shape = GetParam();
  const Dataset data =
      testing::SmallClustered(kPoints, shape.dims, 3, 11 + shape.dims).data;
  MrCCParams params;
  params.num_resolutions = static_cast<int>(shape.resolutions);
  const std::string reference = ReferenceBytes(data, params.num_resolutions);
  ExpectEveryThreadCountMatches(data, params, reference);
}

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  return "d" + std::to_string(info.param.dims) + "_H" +
         std::to_string(info.param.resolutions);
}

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (size_t dims : {1, 2, 14, 30}) {
    for (size_t resolutions : {3, 4, 6}) shapes.push_back({dims, resolutions});
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartitionedBuildShapeTest,
                         ::testing::ValuesIn(Shapes()), ShapeName);

TEST(PartitionedBuildTest, OneLevelOneCellPutsEveryRecordInOneRange) {
  // Every coordinate below 0.5: one level-1 cell, so the first range
  // takes every record and the others stay empty.
  Rng rng(5);
  Dataset data(kPoints, 4);
  for (size_t i = 0; i < kPoints; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      data(i, j) = i % 3 == 0 ? 0.5 * rng.UniformDouble()
                              : 0.1 + 0.05 * rng.UniformDouble();
    }
  }
  MrCCParams params;
  params.num_resolutions = 5;
  ExpectEveryThreadCountMatches(data, params,
                                ReferenceBytes(data, params.num_resolutions));
}

TEST(PartitionedBuildTest, FewerLevelOneCellsThanWorkers) {
  // d = 1: two level-1 cells for seven workers, so at least five ranges
  // are empty.
  const Dataset data = testing::SmallClustered(kPoints, 1, 2, 23).data;
  MrCCParams params;
  params.num_resolutions = 6;
  const Built built = BuildBytes(data, params, 7);
  EXPECT_EQ(built.stats.tree_build_threads, 7);
  EXPECT_TRUE(built.bytes == ReferenceBytes(data, params.num_resolutions));
}

TEST(PartitionedBuildTest, BadRowsAtSliceAndRangeBoundaries) {
  // Around every slice boundary of every thread count: a row above the
  // cube (clamped to the top of the key space, the last range), a NaN
  // row (skipped under both policies) and a row below it (clamped to 0,
  // the first range). The stream's first and last rows are bad too.
  Dataset data = testing::SmallClustered(kPoints, 3, 3, 31).data;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto poison = [&](size_t row, size_t axis, double value) {
    if (row < data.NumPoints()) data(row, axis) = value;
  };
  poison(0, 0, -0.25);
  poison(kPoints - 1, 2, 1.5);
  for (int threads : kThreadCounts) {
    for (int t = 1; t < threads; ++t) {
      const size_t at = SliceBegin(kPoints, threads, t);
      poison(at - 1, 0, 1.5);
      poison(at, 1, nan);
      poison(at + 1, 2, -0.25);
    }
  }
  for (BadPointPolicy policy : {BadPointPolicy::kSkip,
                                BadPointPolicy::kClamp}) {
    SCOPED_TRACE(policy == BadPointPolicy::kSkip ? "skip" : "clamp");
    MrCCParams params;
    params.bad_point_policy = policy;
    const Built serial = BuildBytes(data, params, 1);
    EXPECT_GT(serial.stats.points_skipped, 0u);
    if (policy == BadPointPolicy::kClamp) {
      EXPECT_GT(serial.stats.points_clamped, 0u);
    }
    EXPECT_TRUE(serial.bytes ==
                ReferenceBytes(data, params.num_resolutions, policy));
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const Built built = BuildBytes(data, params, threads);
      EXPECT_EQ(built.stats.tree_build_threads, threads);
      EXPECT_EQ(built.stats.points_skipped, serial.stats.points_skipped);
      EXPECT_EQ(built.stats.points_clamped, serial.stats.points_clamped);
      EXPECT_TRUE(built.bytes == serial.bytes) << "tree bytes differ";
    }
  }
}

TEST(PartitionedBuildTest, ShortPoolBuildsTheSameBytes) {
  // The third spawn fails: four workers asked, three run.
  const Dataset data = testing::SmallClustered(kPoints, 6, 3, 43).data;
  const MrCCParams params;
  const Built serial = BuildBytes(data, params, 1);
  Built degraded;
  {
    fp::ScopedArm arm("pool.spawn=3");
    degraded = BuildBytes(data, params, 4);
  }
  EXPECT_TRUE(degraded.stats.degraded);
  EXPECT_EQ(degraded.stats.tree_build_threads, 3);
  EXPECT_TRUE(degraded.bytes == serial.bytes) << "tree bytes differ";
}

TEST(PartitionedBuildTest, RangeBuildEqualsTheBuildOfItsSlice) {
  // BuildTree over [begin, end), the sharded worker's build: the tree's
  // bytes must equal CountingTree::Build of the slice's kept points at
  // every worker count, and its skip and clamp counts must be the
  // slice's own. Bad rows sit inside the range and just outside it,
  // where the scan must never read.
  Dataset data = testing::SmallClustered(kPoints, 3, 3, 53).data;
  const size_t begin = 1001;
  const size_t end = begin + 4 * 2048 + 5;  // Room for four workers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  data(begin - 1, 0) = nan;
  data(end, 1) = nan;
  data(begin, 2) = 1.5;
  data(begin + 1, 0) = nan;
  data(end - 2, 1) = -0.25;
  data(end - 1, 0) = nan;

  for (BadPointPolicy policy : {BadPointPolicy::kReject,
                                BadPointPolicy::kSkip,
                                BadPointPolicy::kClamp}) {
    SCOPED_TRACE(BadPointPolicyName(policy));
    MrCCParams params;
    params.bad_point_policy = policy;
    // Under kReject only the clean middle of the range can build.
    const bool reject = policy == BadPointPolicy::kReject;
    const size_t first = reject ? begin + 2 : begin;
    const size_t last = reject ? end - 2 : end;
    Dataset kept(0, data.NumDims());
    uint64_t skipped = 0;
    uint64_t clamped = 0;
    std::vector<double> scratch;
    for (size_t i = first; i < last; ++i) {
      std::span<const double> point = data.Point(i);
      const PointAction action = IngestPoint(&point, policy, &scratch);
      ASSERT_NE(action, PointAction::kReject);
      if (action == PointAction::kSkip) {
        ++skipped;
        continue;
      }
      if (action == PointAction::kClamp) ++clamped;
      kept.AppendPoint(point);
    }
    EXPECT_EQ(skipped > 0, !reject);
    EXPECT_EQ(clamped > 0, policy == BadPointPolicy::kClamp);
    Result<CountingTree> expected =
        CountingTree::Build(kept, params.num_resolutions);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    const MemoryDataSource source(data);
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      MrCCStats stats;
      Result<CountingTree> tree =
          BuildTree(source, first, last, params, threads,
                    ChunkPointsFor(params, data.NumDims(), threads), &stats);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      EXPECT_EQ(stats.tree_build_threads, threads);
      EXPECT_EQ(stats.points_skipped, skipped);
      EXPECT_EQ(stats.points_clamped, clamped);
      EXPECT_TRUE(SerializeTree(*tree) == SerializeTree(*expected))
          << "tree bytes differ";
    }
  }
}

TEST(PartitionedBuildTest, FirstFailingSliceFailsTheBuild) {
  // Slices 1 and 2 fail; the build reports slice 1's status.
  ThreadPool pool(3);
  const Result<CountingTree> tree = CountingTree::BuildPartitioned(
      2, 4, 9000, pool,
      [](int worker, size_t, size_t, CountingTree::SliceRun&) {
        return worker == 0 ? Status::OK()
                           : Status::IOError("slice " + std::to_string(worker));
      });
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().message(), "slice 1");
}

}  // namespace
}  // namespace mrcc

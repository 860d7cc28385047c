// The sorted-run build (counting_tree.h): Insert appends a digit key to a
// pending run, and Seal sorts the run and writes the packed tree, merging
// the run's key order into the tree's own when it already holds points.
// The contract is byte identity with a point-at-a-time construction, so
// every case here compares SerializeTree bytes against a naive reference
// builder (reference_tree.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
#include "core/counting_tree.h"
#include "core/tree_io.h"
#include "reference_tree.h"
#include "test_util.h"

namespace mrcc {
namespace {

using testing::ReferenceTree;

CountingTree EmptyTree(size_t dims, int resolutions) {
  Result<CountingTree> tree = CountingTree::Empty(dims, resolutions);
  MRCC_CHECK(tree.ok());
  return std::move(*tree);
}

/// Bytes of one pending point: the digit key plus its index word.
size_t RunBytesPerPoint(size_t dims, int resolutions) {
  return 8 * ((dims * static_cast<size_t>(resolutions) + 63) / 64 + 1);
}

/// Clustered points with the edge coordinates 0, 0.5 and 1 - 2^-53 mixed
/// in, plus exact duplicates of earlier points.
Dataset EdgeData(size_t n, size_t dims, uint64_t seed) {
  Dataset data = testing::SmallClustered(n, dims, 3, seed, 0.2).data;
  const double edges[] = {0.0, 0.5, std::nextafter(1.0, 0.0)};
  Rng rng(seed + 1);
  Dataset out(0, dims);
  std::vector<double> p(dims);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    for (size_t j = 0; j < dims; ++j) {
      p[j] = rng.UniformDouble() < 0.1 ? edges[rng.UniformInt(3)] : data(i, j);
    }
    out.AppendPoint(p);
    if (i % 7 == 3) out.AppendPoint(p);  // A duplicate, back to back.
    if (i % 11 == 5) {  // And a repeat of an earlier point.
      const std::span<const double> earlier = out.Point(i / 2);
      p.assign(earlier.begin(), earlier.end());
      out.AppendPoint(p);
    }
  }
  return out;
}

void ExpectMatches(const CountingTree& tree, const ReferenceTree& ref) {
  ASSERT_TRUE(tree.sealed());
  const Status valid = tree.ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(SerializeTree(tree), ref.Serialize());
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests puts that print into each ctest name. Two 8-byte
// fields leave no padding, so the names are the same in every build.
struct Shape {
  size_t dims;
  size_t resolutions;
};
static_assert(std::has_unique_object_representations_v<Shape>);

class RunBuildShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(RunBuildShapeTest, InsertAndSealMatchesThePerPointDescent) {
  const Shape shape = GetParam();
  const Dataset data = EdgeData(600, shape.dims, 17 + shape.dims);
  const int resolutions = static_cast<int>(shape.resolutions);
  CountingTree tree = EmptyTree(shape.dims, resolutions);
  ReferenceTree ref(shape.dims, resolutions);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
    ref.Insert(data.Point(i));
  }
  EXPECT_FALSE(tree.sealed());
  EXPECT_EQ(tree.total_points(), data.NumPoints());
  tree.Seal();
  ExpectMatches(tree, ref);
}

TEST_P(RunBuildShapeTest, InsertAfterSealFoldsTheNextRun) {
  // Runs of 0, 1 and many points, each sealed: the first is adopted by
  // the empty tree, every later one is merged into the sealed tree's
  // ranked key order.
  const Shape shape = GetParam();
  const Dataset data = EdgeData(300, shape.dims, 29 + shape.dims);
  const int resolutions = static_cast<int>(shape.resolutions);
  CountingTree tree = EmptyTree(shape.dims, resolutions);
  ReferenceTree ref(shape.dims, resolutions);
  size_t next = 0;
  for (size_t run : {size_t{0}, size_t{1}, size_t{0}, size_t{120}, size_t{1},
                     data.NumPoints() - 122}) {
    for (size_t k = 0; k < run; ++k, ++next) {
      ASSERT_TRUE(tree.Insert(data.Point(next)).ok());
      ref.Insert(data.Point(next));
    }
    tree.Seal();
    ExpectMatches(tree, ref);
  }
  EXPECT_EQ(next, data.NumPoints());
}

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  return "d" + std::to_string(info.param.dims) + "_H" +
         std::to_string(info.param.resolutions);
}

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (size_t dims : std::vector<size_t>{1, 2, 14, 30, 62}) {
    for (size_t resolutions : {3, 4, 6}) shapes.push_back({dims, resolutions});
  }
  shapes.push_back({2, 40});  // Deep: the key spans two words.
  shapes.push_back({2, 63});  // The deepest H Empty() keeps.
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, RunBuildShapeTest,
                         ::testing::ValuesIn(Shapes()), ShapeName);

TEST(RunBuildTest, EmptyAndSinglePointRuns) {
  CountingTree empty = EmptyTree(3, 4);
  empty.Seal();
  ExpectMatches(empty, ReferenceTree(3, 4));

  const double point[] = {0.0, 0.5, std::nextafter(1.0, 0.0)};
  CountingTree one = EmptyTree(3, 4);
  ReferenceTree ref(3, 4);
  ASSERT_TRUE(one.Insert(point).ok());
  ref.Insert(point);
  one.Seal();
  ExpectMatches(one, ref);
}

TEST(RunBuildTest, MemoryBytesCountsThePendingRun) {
  const Dataset data = testing::UniformDataset(1000, 14, 5);
  CountingTree tree = EmptyTree(14, 4);
  const size_t empty_bytes = tree.MemoryBytes();
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
  }
  EXPECT_GE(tree.MemoryBytes(),
            empty_bytes + data.NumPoints() * RunBytesPerPoint(14, 4));
  tree.Seal();
  // The sealed tree keeps none of the run: a fresh build of the same
  // points reports the same footprint.
  Result<CountingTree> built = CountingTree::Build(data, 4);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(tree.MemoryBytes(), built->MemoryBytes());
}

TEST(RunBuildTest, RunSplitByTheByteCapStillMatches) {
  // d = 2, H = 8: 16 bytes a point, so the run fills kMaxRunBytes after
  // 2^21 points; the next Insert builds that run's tree first and the
  // rest of the stream is folded in at Seal.
  constexpr size_t kDims = 2;
  constexpr int kResolutions = 8;
  const size_t per_point = RunBytesPerPoint(kDims, kResolutions);
  const size_t cap_points = CountingTree::kMaxRunBytes / per_point;
  const size_t total = cap_points + 5000;
  Rng rng(99);
  CountingTree tree = EmptyTree(kDims, kResolutions);
  ReferenceTree ref(kDims, kResolutions);
  double point[kDims];
  for (size_t i = 0; i < total; ++i) {
    // Two dense blobs and a sparse background keep the tree small.
    const double centre = i % 3 == 0 ? 0.25 : 0.7;
    for (double& v : point) {
      v = i % 10 == 9 ? rng.UniformDouble()
                      : centre + 0.05 * rng.UniformDouble();
    }
    if (i == cap_points) {
      EXPECT_GE(tree.MemoryBytes(), CountingTree::kMaxRunBytes);
    }
    ASSERT_TRUE(tree.Insert(point).ok());
    ref.Insert(point);
    if (i == cap_points) {
      EXPECT_LT(tree.MemoryBytes(), CountingTree::kMaxRunBytes / 2);
    }
  }
  EXPECT_EQ(tree.total_points(), total);
  tree.Seal();
  ExpectMatches(tree, ref);
}

TEST(RunBuildTest, PartitionedBuildPastTheRunCapPerWorkerStillMatches) {
  // d = 1, H = 3: 16 bytes a point, so each of two workers fills
  // kMaxRunBytes after 2^21 points. A stream of 1.25 rounds of that is
  // built as one full round and a quarter round counted into it, and the
  // records in flight never pass 2 * kMaxRunBytes a worker (the record
  // buffer and its sort buffer) — building it in one round would need
  // 1.25 times that.
  constexpr size_t kDims = 1;
  constexpr int kResolutions = 3;
  constexpr size_t kWorkers = 2;
  const size_t round =
      kWorkers * CountingTree::kMaxRunBytes /
      RunBytesPerPoint(kDims, kResolutions);
  const size_t total = round + round / 4;
  Rng rng(7);
  Dataset data(total, kDims);
  for (size_t i = 0; i < total; ++i) {
    data(i, 0) = i % 5 == 0 ? rng.UniformDouble()
                            : 0.6 + 0.1 * rng.UniformDouble();
  }
  ReferenceTree ref(kDims, kResolutions);
  for (size_t i = 0; i < total; ++i) ref.Insert(data.Point(i));

  ThreadPool pool(kWorkers);
  ASSERT_EQ(pool.num_threads(), static_cast<int>(kWorkers));
  std::vector<size_t> slices;
  const MemoryUsageScope memory;
  Result<CountingTree> tree = CountingTree::BuildPartitioned(
      kDims, kResolutions, total, pool,
      [&](int worker, size_t begin, size_t end, CountingTree::SliceRun& run) {
        if (worker == 0) slices.push_back(end - begin);
        for (size_t i = begin; i < end; ++i) {
          MRCC_RETURN_IF_ERROR(run.Insert(data.Point(i)));
        }
        return Status::OK();
      });
  const int64_t peak = memory.PeakDeltaBytes();
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(slices, (std::vector<size_t>{round / kWorkers, round / 8}));
  EXPECT_LE(peak, static_cast<int64_t>(2 * kWorkers *
                                       CountingTree::kMaxRunBytes +
                                       (size_t{16} << 20)));
  EXPECT_EQ(tree->total_points(), total);
  ExpectMatches(*tree, ref);
}

TEST(RunBuildTest, InsertTreeBetweenRunsKeepsStreamOrder) {
  // Flushed run -> sealed sub-tree -> flushed run, one Fold: the first
  // run is counted in before the sealed sub-tree, and the last run
  // after it.
  const Dataset data = EdgeData(400, 6, 41);
  const size_t a = 150, b = 300;
  CountingTree middle = EmptyTree(6, 5);
  for (size_t i = a; i < b; ++i) ASSERT_TRUE(middle.Insert(data.Point(i)).ok());
  middle.Seal();

  CountingTree head = EmptyTree(6, 5);
  CountingTree tail = EmptyTree(6, 5);
  ReferenceTree ref(6, 5);
  for (size_t i = 0; i < data.NumPoints(); ++i) ref.Insert(data.Point(i));
  for (size_t i = 0; i < a; ++i) ASSERT_TRUE(head.Insert(data.Point(i)).ok());
  for (size_t i = b; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tail.Insert(data.Point(i)).ok());
  }
  head.Flush();
  tail.Flush();
  const CountingTree* parts[] = {&head, &middle, &tail};
  Result<CountingTree> tree = CountingTree::Fold(parts, nullptr, nullptr);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ExpectMatches(*tree, ref);
}

TEST(RunBuildTest, WindowGenerationSequenceMatches) {
  // The window engine's life cycle: each generation is an empty tree fed
  // by Insert and sealed; a snapshot folds the retained generations and
  // the filling one, flushed, with one Fold. At every snapshot the fold
  // must equal a descent over exactly the retained points.
  constexpr size_t kDims = 5;
  constexpr int kResolutions = 4;
  constexpr size_t kGenerationPoints = 97;
  constexpr size_t kRetained = 3;
  const Dataset data = EdgeData(700, kDims, 53);
  std::deque<std::pair<size_t, CountingTree>> generations;  // (first, tree)
  size_t filling_first = 0;
  CountingTree filling = EmptyTree(kDims, kResolutions);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(filling.Insert(data.Point(i)).ok());
    if (i + 1 - filling_first == kGenerationPoints) {
      filling.Seal();
      generations.emplace_back(filling_first, std::move(filling));
      filling = EmptyTree(kDims, kResolutions);
      filling_first = i + 1;
      if (generations.size() > kRetained) generations.pop_front();
    }
    if (i % 61 != 60) continue;
    SCOPED_TRACE("snapshot after point " + std::to_string(i));
    std::vector<const CountingTree*> parts;
    for (const auto& generation : generations) {
      parts.push_back(&generation.second);
    }
    filling.Flush();
    parts.push_back(&filling);
    Result<CountingTree> window = CountingTree::Fold(parts, nullptr, nullptr);
    ASSERT_TRUE(window.ok()) << window.status().ToString();
    ReferenceTree ref(kDims, kResolutions);
    const size_t first =
        generations.empty() ? filling_first : generations.front().first;
    for (size_t k = first; k <= i; ++k) ref.Insert(data.Point(k));
    ExpectMatches(*window, ref);
  }
}

}  // namespace
}  // namespace mrcc

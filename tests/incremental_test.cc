// Incremental tree maintenance and the sliding-window streaming engine.
//
// The contract under test (counting_tree.h, streaming_mrcc.h): a tree
// grown point by point through Insert/Flush/Seal, MergeTree or Fold is
// byte-identical to one built in a single batch over the same stream,
// however the stream is cut into batches, sub-trees or generations; and
// a StreamingMrCC snapshot reproduces the batch pipeline's clusters over
// exactly the points its window retains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/beta_cluster_finder.h"
#include "core/counting_tree.h"
#include "core/mrcc.h"
#include "core/streaming_mrcc.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "test_util.h"

namespace mrcc {
namespace {

uint64_t FnvMix(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the exact serialized tree bytes — byte identity, not just
/// count equality.
uint64_t TreeBytesHash(const CountingTree& tree) {
  const std::string path = testing::UniqueTempPath("mrcc_incremental_tree") + ".bin";
  EXPECT_TRUE(SaveTree(tree, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  std::remove(path.c_str());
  return FnvMix(1469598103934665603ull, bytes.data(), bytes.size());
}

CountingTree EmptyTree(size_t dims, int resolutions) {
  Result<CountingTree> tree = CountingTree::Empty(dims, resolutions);
  MRCC_CHECK(tree.ok());
  return std::move(*tree);
}

TEST(IncrementalTreeTest, InsertStreamMatchesBatchBuildByteForByte) {
  const Dataset data = testing::UniformDataset(1200, 5, 31);
  const int resolutions = 4;
  Result<CountingTree> batch = CountingTree::Build(data, resolutions);
  ASSERT_TRUE(batch.ok());
  const uint64_t golden = TreeBytesHash(*batch);

  CountingTree grown = EmptyTree(data.NumDims(), resolutions);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(grown.Insert(data.Point(i)).ok());
  }
  grown.Seal();
  EXPECT_TRUE(grown.sealed());
  EXPECT_EQ(TreeBytesHash(grown), golden);
  EXPECT_EQ(grown.total_points(), batch->total_points());
}

TEST(IncrementalTreeTest, BatchCutsNeverChangeTheTree) {
  const Dataset data = testing::UniformDataset(997, 4, 5);
  const int resolutions = 5;
  Result<CountingTree> batch = CountingTree::Build(data, resolutions);
  ASSERT_TRUE(batch.ok());
  const uint64_t golden = TreeBytesHash(*batch);

  const size_t num_dims = data.NumDims();
  for (size_t cut : {size_t{1}, size_t{7}, size_t{64}, data.NumPoints()}) {
    SCOPED_TRACE("batch of " + std::to_string(cut) + " points");
    CountingTree grown = EmptyTree(num_dims, resolutions);
    for (size_t i = 0; i < data.NumPoints(); i += cut) {
      const size_t count = std::min(cut, data.NumPoints() - i);
      for (size_t j = i; j < i + count; ++j) {
        ASSERT_TRUE(grown.Insert(data.Point(j)).ok());
      }
      grown.Seal();
    }
    EXPECT_EQ(TreeBytesHash(grown), golden);
  }
}

TEST(IncrementalTreeTest, SealedTreeReopensOnInsert) {
  // Insert -> Seal -> Insert -> Seal must equal one uninterrupted stream:
  // sealing is a read barrier, not an end of life.
  const Dataset data = testing::UniformDataset(400, 3, 77);
  Result<CountingTree> batch = CountingTree::Build(data, 4);
  ASSERT_TRUE(batch.ok());

  CountingTree grown = EmptyTree(3, 4);
  for (size_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(grown.Insert(data.Point(i)).ok());
  }
  grown.Seal();
  EXPECT_GT(grown.Level(1).num_cells(), 0u);  // Readable while sealed.
  for (size_t i = 150; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(grown.Insert(data.Point(i)).ok());
  }
  grown.Seal();
  EXPECT_EQ(TreeBytesHash(grown), TreeBytesHash(*batch));
}

TEST(IncrementalTreeTest, InsertTreeBetweenInsertsMatchesBatchBuild) {
  // Insert -> MergeTree -> Insert -> Seal: the destination is unsealed
  // when the sealed sub-tree arrives, so MergeTree must count its
  // pending inserts in first, then the sub-tree's points.
  const Dataset data = testing::UniformDataset(900, 4, 19);
  const int resolutions = 5;
  Result<CountingTree> batch = CountingTree::Build(data, resolutions);
  ASSERT_TRUE(batch.ok());

  Dataset middle(0, data.NumDims());
  for (size_t i = 300; i < 650; ++i) middle.AppendPoint(data.Point(i));
  Result<CountingTree> sub = CountingTree::Build(middle, resolutions);
  ASSERT_TRUE(sub.ok());

  CountingTree grown = EmptyTree(data.NumDims(), resolutions);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(grown.Insert(data.Point(i)).ok());
  }
  ASSERT_FALSE(grown.sealed());
  ASSERT_TRUE(MergeTree(&grown, *sub).ok());
  ASSERT_TRUE(grown.sealed());
  for (size_t i = 650; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(grown.Insert(data.Point(i)).ok());
  }
  grown.Seal();
  EXPECT_EQ(grown.total_points(), data.NumPoints());
  EXPECT_EQ(TreeBytesHash(grown), TreeBytesHash(*batch));
}

TEST(IncrementalTreeTest, SearchRejectsAnUnsealedTree) {
  const Dataset data = testing::UniformDataset(200, 3, 23);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(data.Point(0)).ok());
  Result<BetaSearchResult> search = RunBetaSearch(*tree, BetaFinderOptions{});
  EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
  tree->Seal();
  EXPECT_TRUE(RunBetaSearch(*tree, BetaFinderOptions{}).ok());
}

TEST(IncrementalTreeTest, InsertValidatesItsInput) {
  CountingTree tree = EmptyTree(3, 4);
  const double wrong_dims[] = {0.5, 0.5};
  EXPECT_EQ(tree.Insert(wrong_dims).code(), StatusCode::kInvalidArgument);
  const double out_of_cube[] = {0.5, 1.5, 0.5};
  EXPECT_EQ(tree.Insert(out_of_cube).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.total_points(), 0u);
}

class StreamingMrCCTest : public ::testing::Test {
 protected:
  void SetUp() override { dataset_ = testing::SmallClustered(3000, 6, 2, 41); }

  /// Pushes points [begin, end) of the dataset in `chunk`-point slices.
  static void Push(StreamingMrCC& engine, const Dataset& data, size_t begin,
                   size_t end, size_t chunk) {
    const size_t d = data.NumDims();
    for (size_t i = begin; i < end; i += chunk) {
      const size_t count = std::min(chunk, end - i);
      ASSERT_TRUE(engine
                      .PushChunk(std::span<const double>(data.Point(i).data(),
                                                         count * d))
                      .ok());
    }
  }

  LabeledDataset dataset_;
};

TEST_F(StreamingMrCCTest, UnwindowedSnapshotEqualsBatchRun) {
  const Dataset& data = dataset_.data;
  MrCCParams params;
  const Result<MrCCResult> batch = MrCC(params).Run(data);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  Result<StreamingMrCC> engine = StreamingMrCC::Create(params, data.NumDims());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Push(*engine, data, 0, data.NumPoints(), 257);
  EXPECT_EQ(engine->points_seen(), data.NumPoints());
  EXPECT_EQ(engine->points_retained(), data.NumPoints());
  EXPECT_EQ(engine->points_evicted(), 0u);

  const MemoryDataSource source(data);
  const Result<MrCCResult> snap = engine->Snapshot(source);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->clustering.labels, batch->clustering.labels);
  ASSERT_EQ(snap->beta_clusters.size(), batch->beta_clusters.size());
  for (size_t i = 0; i < snap->beta_clusters.size(); ++i) {
    EXPECT_EQ(snap->beta_clusters[i].lower, batch->beta_clusters[i].lower);
    EXPECT_EQ(snap->beta_clusters[i].upper, batch->beta_clusters[i].upper);
  }
}

TEST_F(StreamingMrCCTest, WindowCoveringTheWholeStreamEqualsBatch) {
  // window.points == N with several generations: the snapshot folds
  // multiple sealed sub-trees and must still reproduce the batch run.
  const Dataset& data = dataset_.data;
  MrCCParams params;
  params.window.points = data.NumPoints();
  params.window.generations = 6;

  const Result<MrCCResult> batch = MrCC(params).Run(data);  // RunWindowed.
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  MrCCParams plain;
  const Result<MrCCResult> reference = MrCC(plain).Run(data);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(batch->clustering.labels, reference->clustering.labels);
  EXPECT_EQ(batch->beta_clusters.size(), reference->beta_clusters.size());
  EXPECT_GT(batch->stats.chunks_scanned, 0u);
}

TEST_F(StreamingMrCCTest, WindowEvictsWholeGenerations) {
  const Dataset& data = dataset_.data;
  MrCCParams params;
  params.window.points = 1000;
  params.window.generations = 4;  // 250 points per generation.

  Result<StreamingMrCC> engine = StreamingMrCC::Create(params, data.NumDims());
  ASSERT_TRUE(engine.ok());
  Push(*engine, data, 0, data.NumPoints(), 100);

  EXPECT_EQ(engine->points_seen(), data.NumPoints());
  EXPECT_GT(engine->points_evicted(), 0u);
  EXPECT_LE(engine->points_retained(), 1000u);
  EXPECT_GE(engine->points_retained(), 750u);  // Window exact to one gen.
  EXPECT_EQ(engine->points_retained() + engine->points_evicted(),
            engine->points_seen());
  EXPECT_LE(engine->generations_sealed(), 4u);

  const Result<MrCCResult> snap = engine->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->clustering.labels.empty());  // No raw points retained.
}

TEST_F(StreamingMrCCTest, SnapshotAfterEvictionEqualsBatchOverRetainedPoints) {
  // Evicted generations plus a partly filled current one: the snapshot
  // folds the retained sealed generations and the unsealed tail, and must
  // equal a batch run over exactly the points still in the window.
  const Dataset& data = dataset_.data;
  MrCCParams params;
  params.window.points = 1000;
  params.window.generations = 4;  // 250 points per generation.
  Result<StreamingMrCC> engine = StreamingMrCC::Create(params, data.NumDims());
  ASSERT_TRUE(engine.ok());
  const size_t pushed = 2600;
  Push(*engine, data, 0, pushed, 100);
  ASSERT_GT(engine->points_evicted(), 0u);
  const uint64_t retained = engine->points_retained();
  ASSERT_EQ(retained % 250, 100u);  // The filling generation holds 100.

  Dataset window(0, data.NumDims());
  for (size_t i = pushed - retained; i < pushed; ++i) {
    window.AppendPoint(data.Point(i));
  }
  const Result<MrCCResult> batch = MrCC(MrCCParams{}).Run(window);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->beta_clusters.empty());

  const MemoryDataSource source(window);
  const Result<MrCCResult> snap = engine->Snapshot(source);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->clustering.labels, batch->clustering.labels);
  ASSERT_EQ(snap->beta_clusters.size(), batch->beta_clusters.size());
  for (size_t i = 0; i < snap->beta_clusters.size(); ++i) {
    EXPECT_EQ(snap->beta_clusters[i].lower, batch->beta_clusters[i].lower);
    EXPECT_EQ(snap->beta_clusters[i].upper, batch->beta_clusters[i].upper);
    EXPECT_EQ(snap->beta_clusters[i].relevant,
              batch->beta_clusters[i].relevant);
  }
}

TEST_F(StreamingMrCCTest, SnapshotsAreRepeatableAndNonDestructive) {
  const Dataset& data = dataset_.data;
  MrCCParams params;
  params.window.points = 1500;
  params.window.generations = 3;

  Result<StreamingMrCC> engine = StreamingMrCC::Create(params, data.NumDims());
  ASSERT_TRUE(engine.ok());
  Push(*engine, data, 0, 2000, 333);

  const MemoryDataSource source(data);
  const Result<MrCCResult> first = engine->Snapshot(source);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const Result<MrCCResult> second = engine->Snapshot(source);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->clustering.labels, second->clustering.labels);
  EXPECT_EQ(first->beta_clusters.size(), second->beta_clusters.size());

  // The feed keeps going after a snapshot; the window keeps sliding.
  const uint64_t seen_before = engine->points_seen();
  Push(*engine, data, 2000, data.NumPoints(), 333);
  EXPECT_EQ(engine->points_seen(), seen_before + (data.NumPoints() - 2000));
  const Result<MrCCResult> third = engine->Snapshot(source);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
}

TEST_F(StreamingMrCCTest,
       SnapshotAfterEveryPushEqualsBatchOverRetainedPoints) {
  // Generations of 1 and of 3 points, and the unwindowed mode, with a
  // snapshot on 3 threads after every push — so also after the push that
  // seals a generation and evicts one, and after the push right after it.
  // Each snapshot must find the β-clusters and labels of MrCC::Run over
  // exactly the retained points, and a second snapshot at the same
  // position must repeat the first: a snapshot changes nothing the next
  // one reads.
  const Dataset& data = dataset_.data;
  struct Shape {
    size_t window;  // 0: unwindowed.
    size_t generations;
    size_t stream;
  };
  const Shape shapes[] = {{40, 40, 90}, {120, 40, 240}, {0, 1, 140}};
  const auto same = [](const MrCCResult& a, const MrCCResult& b) {
    EXPECT_EQ(a.clustering.labels, b.clustering.labels);
    ASSERT_EQ(a.beta_clusters.size(), b.beta_clusters.size());
    for (size_t i = 0; i < a.beta_clusters.size(); ++i) {
      EXPECT_EQ(a.beta_clusters[i].lower, b.beta_clusters[i].lower);
      EXPECT_EQ(a.beta_clusters[i].upper, b.beta_clusters[i].upper);
      EXPECT_EQ(a.beta_clusters[i].relevant, b.beta_clusters[i].relevant);
      EXPECT_EQ(a.beta_clusters[i].level, b.beta_clusters[i].level);
    }
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("window " + std::to_string(shape.window) + " of " +
                 std::to_string(shape.generations) + " generations");
    MrCCParams params;
    params.window.points = shape.window;
    params.window.generations = shape.generations;
    params.num_threads = 3;  // The fold merges and lays out on 3 threads.
    Result<StreamingMrCC> engine =
        StreamingMrCC::Create(params, data.NumDims());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Result<MrCCResult> empty = engine->Snapshot();  // Nothing pushed.
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_TRUE(empty->beta_clusters.empty());
    size_t pushes_after_eviction = 0;
    bool evicted_last = false;
    bool found_clusters = false;
    for (size_t i = 0; i < shape.stream; ++i) {
      SCOPED_TRACE("after push " + std::to_string(i));
      const uint64_t evicted = engine->points_evicted();
      ASSERT_TRUE(engine->Push(data.Point(i)).ok());
      if (evicted_last) ++pushes_after_eviction;
      evicted_last = engine->points_evicted() > evicted;
      const uint64_t retained = engine->points_retained();
      ASSERT_EQ(retained + engine->points_evicted(), i + 1);
      Dataset window(0, data.NumDims());
      for (size_t j = i + 1 - retained; j <= i; ++j) {
        window.AppendPoint(data.Point(j));
      }
      const MemoryDataSource source(window);
      const Result<MrCCResult> first = engine->Snapshot(source);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      const Result<MrCCResult> second = engine->Snapshot(source);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      const Result<MrCCResult> batch = MrCC(MrCCParams{}).Run(window);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      same(*first, *batch);
      same(*second, *first);
      EXPECT_EQ(first->stats.tree_build_threads, 3);
      found_clusters |= !batch->beta_clusters.empty();
    }
    EXPECT_EQ(pushes_after_eviction > 0, shape.window > 0);
    EXPECT_TRUE(found_clusters);
  }
}

TEST_F(StreamingMrCCTest, PushHonorsTheBadPointPolicy) {
  MrCCParams params;
  Result<StreamingMrCC> reject = StreamingMrCC::Create(params, 3);
  ASSERT_TRUE(reject.ok());
  const double bad[] = {0.5, 2.0, 0.5};
  EXPECT_EQ(reject->Push(bad).code(), StatusCode::kInvalidArgument);
  // A chunk that is not a whole number of points is refused whole.
  const double ragged[] = {0.5, 0.5, 0.5, 0.25};
  EXPECT_EQ(reject->PushChunk(ragged).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reject->points_seen(), 0u);
  // On a bad point the chunk stops there: points before it stay counted,
  // the rest are not, and the error names the point's stream position.
  const double chunk[] = {0.5, 0.5, 0.5, 0.5, 2.0, 0.5, 0.25, 0.25, 0.25};
  const Status stopped = reject->PushChunk(chunk);
  EXPECT_EQ(stopped.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stopped.message().find("point 1 of"), std::string::npos)
      << stopped.ToString();
  EXPECT_EQ(reject->points_seen(), 1u);

  params.bad_point_policy = BadPointPolicy::kSkip;
  Result<StreamingMrCC> skip = StreamingMrCC::Create(params, 3);
  ASSERT_TRUE(skip.ok());
  EXPECT_TRUE(skip->Push(bad).ok());
  EXPECT_EQ(skip->points_skipped(), 1u);
  EXPECT_EQ(skip->points_seen(), 0u);

  params.bad_point_policy = BadPointPolicy::kClamp;
  Result<StreamingMrCC> clamp = StreamingMrCC::Create(params, 3);
  ASSERT_TRUE(clamp.ok());
  EXPECT_TRUE(clamp->Push(bad).ok());
  EXPECT_EQ(clamp->points_seen(), 1u);
  EXPECT_EQ(clamp->points_clamped(), 1u);
}

// A label source is scanned only by the snapshot, never by Push, so its
// rows go through the window's bad-point policy there: a NaN row fails a
// kReject snapshot and is noise under kSkip.
TEST_F(StreamingMrCCTest, SnapshotLabelSourceHonorsTheBadPointPolicy) {
  const Dataset& data = dataset_.data;
  Dataset dirty = data;
  dirty(5, 0) = std::numeric_limits<double>::quiet_NaN();
  const MemoryDataSource source(dirty);
  for (const BadPointPolicy policy :
       {BadPointPolicy::kReject, BadPointPolicy::kSkip}) {
    SCOPED_TRACE(BadPointPolicyName(policy));
    MrCCParams params;
    params.bad_point_policy = policy;
    params.window.points = data.NumPoints();
    Result<StreamingMrCC> engine =
        StreamingMrCC::Create(params, data.NumDims());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Push(*engine, data, 0, data.NumPoints(), 500);
    const Result<MrCCResult> snap = engine->Snapshot(source);
    if (policy == BadPointPolicy::kReject) {
      ASSERT_FALSE(snap.ok());
      EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(snap.status().message().find("point 5 of"),
                std::string::npos)
          << snap.status().ToString();
    } else {
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      ASSERT_EQ(snap->clustering.labels.size(), data.NumPoints());
      EXPECT_EQ(snap->clustering.labels[5], kNoiseLabel);
    }
  }
}

TEST_F(StreamingMrCCTest, SnapshotLabelScanNamesTheFirstBadRowInSliceOrder) {
  // 262,144 label rows on four labeling slices of 65,536: bad rows at the
  // end of slice 0 and the start of slice 3. Slice 3 fails first in time,
  // but like every stage the scan reports the first failure in slice
  // order, on every run.
  constexpr size_t kRows = 262144;
  const Dataset& data = dataset_.data;
  Dataset dirty(kRows, data.NumDims());
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < data.NumDims(); ++j) {
      dirty(i, j) = data(i % data.NumPoints(), j);
    }
  }
  dirty(65535, 0) = std::numeric_limits<double>::quiet_NaN();
  dirty(196608, 1) = std::numeric_limits<double>::quiet_NaN();
  const MemoryDataSource source(dirty);
  MrCCParams params;
  params.num_threads = 4;
  params.window.points = data.NumPoints();
  Result<StreamingMrCC> engine = StreamingMrCC::Create(params, data.NumDims());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Push(*engine, data, 0, data.NumPoints(), 500);
  for (int run = 0; run < 20; ++run) {
    const Result<MrCCResult> snap = engine->Snapshot(source);
    ASSERT_FALSE(snap.ok());
    EXPECT_NE(snap.status().message().find("point 65535 of"),
              std::string::npos)
        << "run " << run << ": " << snap.status().ToString();
  }
}

TEST_F(StreamingMrCCTest, WindowParamsAreValidated) {
  MrCCParams params;
  params.window.points = 100;
  params.window.generations = 0;
  EXPECT_EQ(StreamingMrCC::Create(params, 3).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mrcc

// End-to-end suite of dist/sharded_build.h, all in-process: the sharded
// pipeline must equal the single-process MrCC::Run bit for bit, resume
// must skip completed shards, and shard loss (deleted or corrupt
// artifacts, injected load faults) must degrade to rebuilds — never to
// wrong results.

#include "dist/sharded_build.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "core/streaming_mrcc.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "test_util.h"

namespace mrcc {
namespace dist {
namespace {

void ExpectSameResults(const MrCCResult& a, const MrCCResult& b) {
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.beta_to_cluster, b.beta_to_cluster);
  ASSERT_EQ(a.beta_clusters.size(), b.beta_clusters.size());
  for (size_t i = 0; i < a.beta_clusters.size(); ++i) {
    EXPECT_EQ(a.beta_clusters[i].lower, b.beta_clusters[i].lower);
    EXPECT_EQ(a.beta_clusters[i].upper, b.beta_clusters[i].upper);
    EXPECT_EQ(a.beta_clusters[i].relevant, b.beta_clusters[i].relevant);
    EXPECT_EQ(a.beta_clusters[i].level, b.beta_clusters[i].level);
    EXPECT_EQ(a.beta_clusters[i].center_count, b.beta_clusters[i].center_count);
  }
  ASSERT_EQ(a.clustering.clusters.size(), b.clustering.clusters.size());
  for (size_t c = 0; c < a.clustering.clusters.size(); ++c) {
    EXPECT_EQ(a.clustering.clusters[c].relevant_axes,
              b.clustering.clusters[c].relevant_axes);
  }
}

// FNV-1a of the single-process labels of the fixture's dataset
// (SmallClustered(2500, 6, 2, 23), default parameters).
constexpr uint64_t kPinnedLabelsHash = 0xa57dc9f2501c05ffull;

class DistBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = testing::SmallClustered(2500, 6, 2, 23).data;
    dir_ = testing::UniqueTempPath("mrcc_dist_build_test");
    (void)std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
    options_.dataset_path = dir_ + "/points.bin";
    options_.work_dir = dir_;
    options_.num_shards = 4;
    options_.params.num_threads = 1;
    ASSERT_TRUE(SaveBinary(data_, options_.dataset_path).ok());
    Result<MrCCResult> baseline = MrCC(options_.params).Run(data_);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    baseline_ = std::make_unique<MrCCResult>(std::move(*baseline));
    ASSERT_GT(baseline_->clustering.NumClusters(), 0u);
  }
  void TearDown() override {
    fp::DisarmAll();
    (void)std::system(("rm -rf " + dir_).c_str());
  }

  int64_t Metric(const char* name) {
    return MetricsRegistry::Global().counter(name).value();
  }

  Dataset data_;
  std::string dir_;
  ShardedBuildOptions options_;
  std::unique_ptr<MrCCResult> baseline_;
};

TEST_F(DistBuildTest, ShardedBuildMatchesSingleProcessBitForBit) {
  Result<MrCCResult> sharded = RunShardedBuild(options_);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameResults(*baseline_, *sharded);
}

TEST_F(DistBuildTest, EveryEngineReportsTheSameRun) {
  // The batch engine, a window snapshot whose window holds every point
  // and the shard merger run through one driver and differ only in how
  // they assemble the tree: the same settings, the same tree shape and
  // labels, and a total that covers every phase.
  MrCCParams params = options_.params;
  params.num_threads = 2;
  Result<MrCCResult> batch = MrCC(params).Run(data_);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  MrCCParams window_params = params;
  window_params.window.points = data_.NumPoints();
  Result<StreamingMrCC> engine =
      StreamingMrCC::Create(window_params, data_.NumDims());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (size_t i = 0; i < data_.NumPoints(); ++i) {
    ASSERT_TRUE(engine->Push(data_.Point(i)).ok());
  }
  Result<MrCCResult> window = engine->Snapshot(MemoryDataSource(data_));
  ASSERT_TRUE(window.ok()) << window.status().ToString();

  ShardedBuildOptions options = options_;
  options.params = params;
  Result<MrCCResult> sharded = RunShardedBuild(options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  for (const auto& [name, result] :
       {std::pair{"window snapshot", &*window},
        std::pair{"sharded build", &*sharded}}) {
    SCOPED_TRACE(name);
    const MrCCStats& a = batch->stats;
    const MrCCStats& b = result->stats;
    EXPECT_EQ(b.num_threads, a.num_threads);
    EXPECT_EQ(b.chunk_points, a.chunk_points);
    EXPECT_EQ(b.read_ahead_chunks, a.read_ahead_chunks);
    EXPECT_EQ(b.effective_resolutions, a.effective_resolutions);
    EXPECT_EQ(b.cells_per_level, a.cells_per_level);
    EXPECT_EQ(result->clustering.labels, batch->clustering.labels);
  }
  for (const MrCCResult* result : {&*batch, &*window, &*sharded}) {
    const MrCCStats& s = result->stats;
    EXPECT_EQ(s.chunk_points, kDefaultChunkPoints);
    EXPECT_EQ(s.read_ahead_chunks, 2u);
    EXPECT_GE(s.total_seconds, s.tree_build_seconds + s.beta_search_seconds +
                                   s.cluster_build_seconds);
  }
}

TEST_F(DistBuildTest, ShardCountNeverChangesResults) {
  for (const int shards : {1, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedBuildOptions options = options_;
    options.work_dir = dir_ + "/s" + std::to_string(shards);
    (void)std::system(("mkdir -p " + options.work_dir).c_str());
    options.num_shards = shards;
    Result<MrCCResult> sharded = RunShardedBuild(options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResults(*baseline_, *sharded);
  }
}

TEST_F(DistBuildTest, MergedTreeEqualsSerialTree) {
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  MrCCStats stats;
  Result<CountingTree> merged = MergeShardTrees(options_, *manifest, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  Result<CountingTree> serial =
      CountingTree::Build(data_, options_.params.num_resolutions);
  ASSERT_TRUE(serial.ok());
  // Byte equality, not just equivalence: the sharded path must reproduce
  // the serial tree's serialized form exactly (the golden contract).
  EXPECT_EQ(SerializeTree(*merged), SerializeTree(*serial));
}

TEST_F(DistBuildTest, MergeShardTreesIsIdenticalAtEveryThreadCount) {
  // The artifacts fold with one CountingTree::Fold on a pool of the run's
  // threads: the merge and the layout are cut across them, and the tree
  // bytes and counters must not depend on how many there are.
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  std::string bytes;
  MergeTreeStats stats;
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedBuildOptions options = options_;
    options.params.num_threads = threads;
    MrCCStats merged_stats;
    Result<CountingTree> merged =
        MergeShardTrees(options, *manifest, &merged_stats);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged_stats.tree_build_threads, threads);
    const MergeTreeStats& fold = merged_stats.tree_merge;
    if (threads == 1) {
      bytes = SerializeTree(*merged);
      stats = fold;
      continue;
    }
    EXPECT_EQ(SerializeTree(*merged), bytes);
    EXPECT_EQ(fold.cells_merged, stats.cells_merged);
    EXPECT_EQ(fold.cells_created, stats.cells_created);
    EXPECT_EQ(fold.nodes_created, stats.nodes_created);
  }
}

TEST_F(DistBuildTest, MergeShardsReportsTheFoldPoolAndItsCounters) {
  ShardedBuildOptions options = options_;
  options.params.num_threads = 3;
  Result<MrCCResult> sharded = RunShardedBuild(options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameResults(*baseline_, *sharded);
  EXPECT_EQ(sharded->stats.tree_build_threads, 3);
  // Every cell of the folded tree was created once by the fold (the
  // first shard's included), the rest of the shards' cells merged.
  uint64_t cells = 0;
  for (size_t h = 1; h < sharded->stats.cells_per_level.size(); ++h) {
    cells += sharded->stats.cells_per_level[h];
  }
  EXPECT_EQ(sharded->stats.tree_merge.cells_created, cells);
  EXPECT_GT(sharded->stats.tree_merge.cells_merged, 0u);
}

TEST_F(DistBuildTest, ResumeSkipsCompletedShards) {
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok());
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  // Arm the publication failpoint: a re-run that tried to rebuild any
  // shard would fail its artifact write. All four must skip.
  fp::ScopedArm arm("shard.write");
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    EXPECT_TRUE(BuildShard(options_, *manifest, i).ok()) << "shard " << i;
  }
  fp::DisarmAll();
  Result<BuildManifest> resumed = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(resumed.ok());
  for (const ShardPlan& shard : resumed->shards) {
    EXPECT_TRUE(shard.done);
  }
}

TEST_F(DistBuildTest, DeletedArtifactIsRebuiltWithIdenticalResults) {
  Result<MrCCResult> first = RunShardedBuild(options_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(std::remove(ShardArtifactPath(dir_, 2).c_str()), 0);
  const int64_t rebuilds_before = Metric("shard.rebuilds");
  Result<BuildManifest> manifest = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(manifest.ok());
  Result<MrCCResult> recovered = MergeShards(options_, *manifest);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameResults(*baseline_, *recovered);
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before + 1);
}

TEST_F(DistBuildTest, CorruptArtifactIsRebuiltWithIdenticalResults) {
  Result<MrCCResult> first = RunShardedBuild(options_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Rot one byte in the middle of shard 1's artifact. The checksum
  // rejects it, the merger rebuilds that partition.
  const std::string victim = ShardArtifactPath(dir_, 1);
  Result<std::string> bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string rotted = *bytes;
  rotted[rotted.size() / 2] =
      static_cast<char>(rotted[rotted.size() / 2] ^ 0x20);
  ASSERT_TRUE(WriteFileAtomic(victim, rotted).ok());

  const int64_t rebuilds_before = Metric("shard.rebuilds");
  const int64_t checksum_before = Metric("shard.checksum_failures");
  Result<BuildManifest> manifest = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(manifest.ok());
  Result<MrCCResult> recovered = MergeShards(options_, *manifest);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameResults(*baseline_, *recovered);
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before + 1);
  EXPECT_GT(Metric("shard.checksum_failures"), checksum_before);
}

TEST_F(DistBuildTest, VersionOneArtifactIsRebuiltOnResume) {
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  // Shard 2 left behind by a build of format version 1: the same tree
  // bytes under the old footer.
  const std::string victim = ShardArtifactPath(dir_, 2);
  const ShardPlan& plan = manifest->shards[2];
  Result<CountingTree> tree = BuildShardTree(options_, plan.begin, plan.end);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(WriteFileAtomic(victim, testing::VersionOneShardArtifact(
                                          SerializeTree(*tree), plan.begin,
                                          plan.end))
                  .ok());
  Result<ShardArtifact> v1 = ReadShardArtifact(victim);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kIOError);
  EXPECT_NE(v1.status().message().find("version 1"), std::string::npos)
      << v1.status().ToString();
  EXPECT_NE(v1.status().message().find("supports 2"), std::string::npos)
      << v1.status().ToString();
  EXPECT_FALSE(ShardComplete(options_, *manifest, 2));
  EXPECT_TRUE(ShardComplete(options_, *manifest, 1));

  // A resumed build rebuilds that shard as a worker would (the merger's
  // fallback is not needed) and reproduces the single-process labels.
  const int64_t rebuilds_before = Metric("shard.rebuilds");
  Result<MrCCResult> resumed = RunShardedBuild(options_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(ShardComplete(options_, *manifest, 2));
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before);
  ExpectSameResults(*baseline_, *resumed);
  const std::vector<int>& labels = resumed->clustering.labels;
  EXPECT_EQ(Fnv1a(labels.data(), labels.size() * sizeof(int)),
            kPinnedLabelsHash);
}

TEST_F(DistBuildTest, RestampedCorruptTreePassesResumeAndIsRebuiltByMerger) {
  // Shard 1's tree bytes are damaged and its footer re-stamped, so the
  // checksum holds over the damage. The completion check reads only the
  // footer and the checksum, so resume counts the shard done; the
  // merger's load parses the tree, fails, retries and rebuilds it.
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  const std::string victim = ShardArtifactPath(dir_, 1);
  Result<std::string> bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  (*bytes)[0] = 'X';  // The tree stream's "MRTR" magic.
  testing::RestampShardArtifact(&*bytes);
  ASSERT_TRUE(WriteFileAtomic(victim, *bytes).ok());

  EXPECT_TRUE(ShardComplete(options_, *manifest, 1));
  const Result<ShardArtifact> loaded = ReadShardArtifact(victim);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos)
      << loaded.status().ToString();

  const int64_t rebuilds_before = Metric("shard.rebuilds");
  Result<MrCCResult> resumed = RunShardedBuild(options_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before + 1);
  ExpectSameResults(*baseline_, *resumed);
  const std::vector<int>& labels = resumed->clustering.labels;
  EXPECT_EQ(Fnv1a(labels.data(), labels.size() * sizeof(int)),
            kPinnedLabelsHash);
}

TEST_F(DistBuildTest, ShardedBuildReportsTheBatchRunsSkipAndClampCounts) {
  // NaN rows and out-of-range rows in every shard of the file.
  Dataset dirty = data_;
  const size_t d = dirty.NumDims();
  for (size_t i = 3; i < dirty.NumPoints(); i += 97) {
    dirty(i, i % d) = std::numeric_limits<double>::quiet_NaN();
  }
  for (size_t i = 50; i < dirty.NumPoints(); i += 131) {
    dirty(i, (i + 1) % d) = i % 2 == 0 ? 1.25 : -0.5;
  }
  const std::string path = dir_ + "/dirty.bin";
  ASSERT_TRUE(SaveBinary(dirty, path).ok());
  Result<MmapFileDataSource> file = MmapFileDataSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (const BadPointPolicy policy :
       {BadPointPolicy::kSkip, BadPointPolicy::kClamp}) {
    SCOPED_TRACE(BadPointPolicyName(policy));
    ShardedBuildOptions options = options_;
    options.dataset_path = path;
    options.work_dir = dir_ + "/" + BadPointPolicyName(policy);
    options.params.bad_point_policy = policy;
    Result<MrCCResult> single = MrCC(options.params).Run(*file);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    Result<MrCCResult> sharded = RunShardedBuild(options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResults(*single, *sharded);
    EXPECT_GT(single->stats.points_skipped, 0u);
    EXPECT_EQ(single->stats.points_clamped > 0,
              policy == BadPointPolicy::kClamp);
    EXPECT_EQ(sharded->stats.points_skipped, single->stats.points_skipped);
    EXPECT_EQ(sharded->stats.points_clamped, single->stats.points_clamped);

    // The merger's in-process rebuild of a lost shard counts the same.
    ASSERT_EQ(std::remove(ShardArtifactPath(options.work_dir, 1).c_str()),
              0);
    Result<BuildManifest> manifest =
        LoadManifest(ManifestPath(options.work_dir));
    ASSERT_TRUE(manifest.ok());
    Result<MrCCResult> rebuilt = MergeShards(options, *manifest);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(rebuilt->stats.points_skipped, single->stats.points_skipped);
    EXPECT_EQ(rebuilt->stats.points_clamped, single->stats.points_clamped);
  }
}

TEST_F(DistBuildTest, ArtifactFromWrongPartitionIsRebuilt) {
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok());
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    ASSERT_TRUE(BuildShard(options_, *manifest, i).ok());
  }
  // Swap two artifacts: both verify (checksums are fine) but each now
  // covers the wrong partition; the range cross-check must catch it.
  const std::string a = ShardArtifactPath(dir_, 0);
  const std::string b = ShardArtifactPath(dir_, 1);
  ASSERT_EQ(std::rename(a.c_str(), (a + ".swap").c_str()), 0);
  ASSERT_EQ(std::rename(b.c_str(), a.c_str()), 0);
  ASSERT_EQ(std::rename((a + ".swap").c_str(), b.c_str()), 0);

  const int64_t rebuilds_before = Metric("shard.rebuilds");
  Result<MrCCResult> recovered = MergeShards(options_, *manifest);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameResults(*baseline_, *recovered);
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before + 2);
}

TEST_F(DistBuildTest, TransientLoadFaultIsRetriedNotRebuilt) {
  Result<MrCCResult> first = RunShardedBuild(options_);
  ASSERT_TRUE(first.ok());
  Result<BuildManifest> manifest = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(manifest.ok());

  const int64_t rebuilds_before = Metric("shard.rebuilds");
  const int64_t retries_before = Metric("merge.retries");
  // Fire on the first hit only: shard 0's first load attempt fails, the
  // retry succeeds, and no rebuild happens.
  fp::ScopedArm arm("merge.shard_load=1");
  Result<ShardArtifact> tree = LoadOrRebuildShard(options_, *manifest, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(Metric("shard.rebuilds"), rebuilds_before);
  EXPECT_EQ(Metric("merge.retries"), retries_before + 1);
}

TEST_F(DistBuildTest, PersistentLoadFaultFallsBackToRebuild) {
  Result<MrCCResult> first = RunShardedBuild(options_);
  ASSERT_TRUE(first.ok());
  Result<BuildManifest> manifest = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(manifest.ok());

  ShardedBuildOptions options = options_;
  options.retry.max_attempts = 2;  // Keep the exhausted-retries path quick.
  const int64_t rebuilds_before = Metric("shard.rebuilds");
  fp::ScopedArm arm("merge.shard_load");  // Every load attempt fails.
  Result<MrCCResult> recovered = MergeShards(options, *manifest);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameResults(*baseline_, *recovered);
  EXPECT_EQ(Metric("shard.rebuilds"),
            rebuilds_before +
                static_cast<int64_t>(manifest->shards.size()));
}

TEST_F(DistBuildTest, ThreadedMergePhasesMatchSerial) {
  ShardedBuildOptions options = options_;
  options.params.num_threads = 3;
  Result<MrCCResult> sharded = RunShardedBuild(options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameResults(*baseline_, *sharded);
}

TEST_F(DistBuildTest, MergeShardsRunsTheSingleProcessTailUnderABudget) {
  // The merger runs MrCC::Run's own tail, so with or without a memory
  // budget it reports the same tree stats and makes the same concessions
  // as the single-process run over the same file.
  Result<CountingTree> full =
      CountingTree::Build(data_, options_.params.num_resolutions);
  ASSERT_TRUE(full.ok());
  const size_t full_bytes = full->MemoryBytes();
  ASSERT_TRUE(full->DropDeepestLevel().ok());
  // Between the H = 4 and H = 3 footprints: exactly one drop.
  const size_t one_drop = (full_bytes + full->MemoryBytes()) / 2;
  Result<MmapFileDataSource> file =
      MmapFileDataSource::Open(options_.dataset_path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (const size_t budget : {size_t{0}, one_drop}) {
    SCOPED_TRACE("max_memory_bytes=" + std::to_string(budget));
    ShardedBuildOptions options = options_;
    options.work_dir = dir_ + "/budget" + std::to_string(budget);
    (void)std::system(("mkdir -p " + options.work_dir).c_str());
    options.num_shards = 3;
    options.params.budget.max_memory_bytes = budget;
    Result<MrCCResult> single = MrCC(options.params).Run(*file);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    Result<MrCCResult> sharded = RunShardedBuild(options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResults(*single, *sharded);
    EXPECT_EQ(sharded->stats.effective_resolutions,
              single->stats.effective_resolutions);
    EXPECT_EQ(sharded->stats.effective_resolutions, budget > 0 ? 3 : 4);
    EXPECT_EQ(sharded->stats.cells_per_level, single->stats.cells_per_level);
    EXPECT_EQ(sharded->stats.tree_memory_bytes,
              single->stats.tree_memory_bytes);
    EXPECT_EQ(sharded->stats.cells_per_level.size(),
              static_cast<size_t>(single->stats.effective_resolutions));
    EXPECT_EQ(sharded->stats.degraded, single->stats.degraded);
    EXPECT_EQ(sharded->stats.degraded, budget > 0);
    EXPECT_EQ(sharded->stats.degradation_reasons,
              single->stats.degradation_reasons);
  }
}

TEST_F(DistBuildTest, BuildShardRejectsOutOfRangeIndex) {
  Result<BuildManifest> manifest = PrepareManifest(options_);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(BuildShard(options_, *manifest, 99).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DistBuildTest, BuildShardTreeRejectsBadRange) {
  EXPECT_EQ(BuildShardTree(options_, 10, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      BuildShardTree(options_, 0, data_.NumPoints() + 1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(DistBuildTest, EveryTreeFoldPublishesBothMergeCounters) {
  // The two engines that fold trees — the window snapshot and the shard
  // merger — each add their fold's MergeTreeStats to both registry
  // counters, nothing more or less. The batch build partitions by key
  // space and folds nothing: its counters stay zero and publish nothing.
  const auto run = [this](const auto& engine) {
    const int64_t conflict = Metric("tree.merge.conflict_cells");
    const int64_t created = Metric("tree.merge.cells_created");
    const MergeTreeStats stats = engine();
    EXPECT_EQ(Metric("tree.merge.conflict_cells") - conflict,
              static_cast<int64_t>(stats.cells_merged));
    EXPECT_EQ(Metric("tree.merge.cells_created") - created,
              static_cast<int64_t>(stats.cells_created));
    return stats;
  };

  const Dataset big = testing::SmallClustered(5000, 6, 2, 29).data;
  {
    SCOPED_TRACE("MrCC::Run, two build workers");
    const MergeTreeStats batch = run([&big] {
      MrCCParams params;
      params.num_threads = 2;
      Result<MrCCResult> result = MrCC(params).Run(big);
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return MergeTreeStats{};
      }
      EXPECT_EQ(result->stats.tree_build_threads, 2);
      return result->stats.tree_merge;
    });
    EXPECT_EQ(batch.cells_merged, 0u);
    EXPECT_EQ(batch.cells_created, 0u);
    EXPECT_EQ(batch.nodes_created, 0u);
  }
  {
    SCOPED_TRACE("StreamingMrCC snapshot");
    const MergeTreeStats window = run([this] {
      MrCCParams params;
      params.window.points = 2000;
      params.window.generations = 4;
      Result<StreamingMrCC> engine =
          StreamingMrCC::Create(params, data_.NumDims());
      if (!engine.ok()) {
        ADD_FAILURE() << engine.status().ToString();
        return MergeTreeStats{};
      }
      for (size_t i = 0; i < data_.NumPoints(); ++i) {
        EXPECT_TRUE(engine->Push(data_.Point(i)).ok());
      }
      Result<MrCCResult> result = engine->Snapshot();
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return MergeTreeStats{};
      }
      return result->stats.tree_merge;
    });
    EXPECT_GT(window.cells_created, 0u);
  }
  {
    SCOPED_TRACE("dist::RunShardedBuild, four shard artifacts");
    const MergeTreeStats merger = run([this] {
      Result<MrCCResult> result = RunShardedBuild(options_);
      if (!result.ok()) {
        ADD_FAILURE() << result.status().ToString();
        return MergeTreeStats{};
      }
      return result->stats.tree_merge;
    });
    EXPECT_GT(merger.cells_created, 0u);
  }
}

}  // namespace
}  // namespace dist
}  // namespace mrcc

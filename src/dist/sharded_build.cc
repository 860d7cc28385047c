#include "dist/sharded_build.h"

#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/tree_io.h"

namespace mrcc {
namespace dist {
std::string ManifestPath(const std::string& work_dir) {
  return work_dir + "/manifest.json";
}

std::string ShardArtifactPath(const std::string& work_dir, size_t index) {
  return work_dir + "/shard-" + std::to_string(index) + ".tree";
}

Result<BuildManifest> PrepareManifest(const ShardedBuildOptions& options) {
  // Every artifact in the build lands under work_dir; create it up front
  // so a first run does not need an out-of-band mkdir.
  MRCC_RETURN_IF_ERROR(MakeDirs(options.work_dir));
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  MRCC_RETURN_IF_ERROR(options.params.Validate(source->NumDims()));
  Result<uint64_t> fingerprint = FingerprintDataset(options.dataset_path);
  MRCC_RETURN_IF_ERROR(fingerprint.status());
  const uint64_t params_hash = HashParams(options.params);

  const std::string path = ManifestPath(options.work_dir);
  Result<std::string> existing = ReadFileToString(path);
  if (existing.ok()) {
    // Resume: the stored plan wins, but only for the same build. Every
    // mismatch below means artifacts in this directory were made from a
    // different dataset or parameterization — folding them in would
    // corrupt results silently, so refuse loudly instead.
    Result<BuildManifest> manifest = LoadManifest(path);
    MRCC_RETURN_IF_ERROR(manifest.status());
    if (manifest->fingerprint != *fingerprint) {
      return Status::InvalidArgument(
          "manifest " + path + " was planned against a different dataset "
          "(fingerprint mismatch): the file at " + options.dataset_path +
          " changed since; delete the work directory to rebuild");
    }
    if (manifest->params_hash != params_hash) {
      return Status::InvalidArgument(
          "manifest " + path + " was planned with different result-"
          "affecting parameters (params_hash mismatch); delete the work "
          "directory to rebuild");
    }
    if (manifest->num_points != source->NumPoints() ||
        manifest->num_dims != source->NumDims()) {
      return Status::InvalidArgument(
          "manifest " + path + " shape mismatch: planned " +
          std::to_string(manifest->num_points) + "x" +
          std::to_string(manifest->num_dims) + ", dataset is " +
          std::to_string(source->NumPoints()) + "x" +
          std::to_string(source->NumDims()));
    }
    return manifest;
  }

  BuildManifest manifest;
  manifest.dataset_path = options.dataset_path;
  manifest.fingerprint = *fingerprint;
  manifest.params_hash = params_hash;
  manifest.num_points = source->NumPoints();
  manifest.num_dims = source->NumDims();
  manifest.shards = PlanPartitions(source->NumPoints(), options.num_shards);
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("dataset " + options.dataset_path +
                                   " has no points to shard");
  }
  MRCC_RETURN_IF_ERROR(SaveManifest(manifest, path));
  return manifest;
}

bool ShardComplete(const ShardedBuildOptions& options,
                   const BuildManifest& manifest, size_t index) {
  // Footer and checksum only: the merger parses the tree when it loads
  // the artifact, and rebuilds the shard if that parse fails.
  Result<ShardMeta> meta =
      ReadShardMeta(ShardArtifactPath(options.work_dir, index));
  return meta.ok() && meta->begin == manifest.shards[index].begin &&
         meta->end == manifest.shards[index].end;
}

Result<CountingTree> BuildShardTree(const ShardedBuildOptions& options,
                                    uint64_t begin, uint64_t end,
                                    ScanTally* tally) {
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  if (end > source->NumPoints() || begin >= end) {
    return Status::InvalidArgument(
        "shard partition [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") outside dataset of " +
        std::to_string(source->NumPoints()) + " points");
  }
  MRCC_TRACE_SPAN_N("shard.build", static_cast<int64_t>(end - begin));
  // MrCC::Run's scan and build on one worker, so this tree equals the
  // tree a single-process run counts over the same slice.
  ScanTally unused;
  return BuildTreeOverRange(
      *source, begin, end, options.params,
      ChunkPointsFor(options.params, source->NumDims(), 1),
      tally != nullptr ? tally : &unused);
}

namespace {

/// The artifact footer of partition `plan`, with its scan's counts.
ShardMeta MetaFor(const ShardPlan& plan, const ScanTally& tally) {
  ShardMeta meta;
  meta.begin = plan.begin;
  meta.end = plan.end;
  meta.point_count = plan.end - plan.begin;
  meta.points_skipped = tally.points_skipped;
  meta.points_clamped = tally.points_clamped;
  return meta;
}

}  // namespace

Status BuildShard(const ShardedBuildOptions& options,
                  const BuildManifest& manifest, size_t index) {
  if (index >= manifest.shards.size()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(index) + " out of range (plan has " +
        std::to_string(manifest.shards.size()) + " shards)");
  }
  // Resume: an artifact that exists and verifies is done, whatever the
  // manifest's hint says — a worker killed after its rename but before
  // the manifest update left exactly this state.
  if (ShardComplete(options, manifest, index)) {
    return MarkShardDone(ManifestPath(options.work_dir), index);
  }
  const ShardPlan& plan = manifest.shards[index];
  ScanTally tally;
  Result<CountingTree> tree =
      BuildShardTree(options, plan.begin, plan.end, &tally);
  MRCC_RETURN_IF_ERROR(tree.status());
  MRCC_RETURN_IF_ERROR(
      WriteShardArtifact(*tree, MetaFor(plan, tally),
                         ShardArtifactPath(options.work_dir, index)));
  // Strictly after the artifact's rename: a kill between the two lines
  // leaves a stale-false hint, which resume re-verifies away; the
  // reverse (true bit, no artifact) cannot happen.
  return MarkShardDone(ManifestPath(options.work_dir), index);
}

Result<ShardArtifact> LoadOrRebuildShard(const ShardedBuildOptions& options,
                                         const BuildManifest& manifest,
                                         size_t index) {
  const ShardPlan& plan = manifest.shards[index];
  const std::string path = ShardArtifactPath(options.work_dir, index);
  Result<ShardArtifact> loaded(Status::Internal("shard load not attempted"));
  RetryStats retry_stats;
  const Status status = RetryTransient(
      options.retry, "loading shard " + std::to_string(index),
      [&]() -> Status {
        MRCC_RETURN_IF_ERROR(fp::Maybe("merge.shard_load"));
        Result<ShardArtifact> artifact = ReadShardArtifact(path);
        MRCC_RETURN_IF_ERROR(artifact.status());
        if (artifact->meta.begin != plan.begin ||
            artifact->meta.end != plan.end) {
          return Status::IOError(
              "shard artifact " + path + " covers [" +
              std::to_string(artifact->meta.begin) + ", " +
              std::to_string(artifact->meta.end) +
              "), manifest plans [" + std::to_string(plan.begin) + ", " +
              std::to_string(plan.end) + ")");
        }
        loaded = std::move(artifact);
        return Status::OK();
      },
      &retry_stats);
  if (retry_stats.attempts > 1) {
    MetricsRegistry::Global().counter("merge.retries").Add(
        retry_stats.attempts - 1);
  }
  if (status.ok()) return loaded;
  // Shard-loss recovery: the artifact is gone or rotten beyond retry.
  // Its partition range is still in the manifest, so rebuild the tree
  // right here — slower, never wrong.
  MetricsRegistry::Global().counter("shard.rebuilds").Increment();
  MRCC_TRACE_SPAN_N("shard.rebuild", static_cast<int64_t>(index));
  ScanTally tally;
  Result<CountingTree> tree =
      BuildShardTree(options, plan.begin, plan.end, &tally);
  MRCC_RETURN_IF_ERROR(tree.status());
  return ShardArtifact{std::move(*tree), MetaFor(plan, tally)};
}

Result<FoldedShards> MergeShardTrees(const ShardedBuildOptions& options,
                                     const BuildManifest& manifest) {
  // Each artifact is flushed as it loads: its parsed arenas become its
  // ranked key order and are freed, so the fold never holds a parsed
  // tree beside the key orders.
  std::vector<CountingTree> shards;
  shards.reserve(manifest.shards.size());
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    Result<ShardArtifact> artifact = LoadOrRebuildShard(options, manifest, i);
    MRCC_RETURN_IF_ERROR(artifact.status());
    artifact->tree.Flush();
    shards.push_back(std::move(artifact->tree));
    points_skipped += artifact->meta.points_skipped;
    points_clamped += artifact->meta.points_clamped;
  }
  MRCC_RETURN_IF_ERROR(fp::Maybe("tree.merge.alloc"));
  std::vector<const CountingTree*> parts;
  for (const CountingTree& shard : shards) parts.push_back(&shard);
  // One fold in partition order: each artifact's ranks follow the
  // earlier artifacts', so the one layout is exactly the serial tree
  // (core/counting_tree.h).
  ThreadPool pool(ResolveThreadCount(options.params.num_threads));
  MergeTreeStats stats;
  Result<CountingTree> tree = CountingTree::Fold(parts, &pool, &stats);
  MRCC_RETURN_IF_ERROR(tree.status());
  PublishMergeMetrics(stats);
  return FoldedShards{std::move(*tree), stats, points_skipped,
                      points_clamped, pool.num_threads()};
}

Result<MrCCResult> MergeShards(const ShardedBuildOptions& options,
                               const BuildManifest& manifest) {
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  MRCC_RETURN_IF_ERROR(options.params.Validate(source->NumDims()));
  const int num_threads = ResolveThreadCount(options.params.num_threads);

  MrCCResult result;
  result.stats.num_threads = num_threads;
  Timer total;
  BudgetTracker tracker(options.params.budget);

  Timer phase;
  Result<FoldedShards> folded(Status::Internal("merge not run"));
  {
    MRCC_TRACE_SPAN_N("merge.fold",
                      static_cast<int64_t>(manifest.shards.size()));
    folded = MergeShardTrees(options, manifest);
  }
  MRCC_RETURN_IF_ERROR(folded.status());
  result.stats.tree_merge_seconds = phase.ElapsedSeconds();
  result.stats.tree_build_seconds = result.stats.tree_merge_seconds;
  result.stats.tree_build_threads = folded->fold_threads;
  result.stats.tree_merge = folded->merge_stats;
  result.stats.points_skipped = folded->points_skipped;
  result.stats.points_clamped = folded->points_clamped;

  // From here the pipeline is MrCC::Run's own tail: the merged tree
  // equals the serial tree and every phase is deterministic, so the
  // result is bit-identical to the single-process run — budget
  // concessions included.
  const size_t chunk_points =
      ChunkPointsFor(options.params, source->NumDims(), num_threads);
  result.stats.chunk_points = chunk_points;
  result.stats.read_ahead_chunks = options.params.read_ahead_chunks;
  MRCC_RETURN_IF_ERROR(ClusterTree(folded->tree, options.params, num_threads,
                                   &*source, chunk_points, tracker,
                                   &result));
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

Result<MrCCResult> RunShardedBuild(const ShardedBuildOptions& options) {
  Result<BuildManifest> manifest = PrepareManifest(options);
  MRCC_RETURN_IF_ERROR(manifest.status());
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    MRCC_RETURN_IF_ERROR(BuildShard(options, *manifest, i));
  }
  return MergeShards(options, *manifest);
}

}  // namespace dist
}  // namespace mrcc

#include "dist/sharded_build.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/tree_io.h"
#include "data/prefetch.h"
#include "data/sanitize.h"

namespace mrcc {
namespace dist {
namespace {

/// Scan chunk size (points) of the worker and labeling scans. The chunk
/// size never changes results (DataSource contract), so the distributed
/// path does not replicate the single-process budget-driven shrink — an
/// explicit params.chunk_points still wins.
constexpr size_t kDefaultChunkPoints = 4096;

size_t ChunkPointsFor(const MrCCParams& params) {
  return params.chunk_points > 0 ? params.chunk_points : kDefaultChunkPoints;
}

/// Opens the dataset with the block-read backend — every worker holds
/// only its scan's chunk buffers, so N processes stay out-of-core.
Result<ChunkedBinaryDataSource> OpenDataset(const std::string& path) {
  return ChunkedBinaryDataSource::Open(path);
}

}  // namespace

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
  Result<ChunkedBinaryDataSource> source = OpenDataset(options.dataset_path);
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
  Result<ShardArtifact> artifact =
      ReadShardArtifact(ShardArtifactPath(options.work_dir, index));
  return artifact.ok() &&
         artifact->meta.begin == manifest.shards[index].begin &&
         artifact->meta.end == manifest.shards[index].end;
}

Result<CountingTree> BuildShardTree(const ShardedBuildOptions& options,
                                    uint64_t begin, uint64_t end) {
  Result<ChunkedBinaryDataSource> source = OpenDataset(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  if (end > source->NumPoints() || begin >= end) {
    return Status::InvalidArgument(
        "shard partition [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") outside dataset of " +
        std::to_string(source->NumPoints()) + " points");
  }
  const size_t num_dims = source->NumDims();
  const BadPointPolicy policy = options.params.bad_point_policy;
  MRCC_TRACE_SPAN_N("shard.build", static_cast<int64_t>(end - begin));
  CountingTree::Builder builder(num_dims, options.params.num_resolutions);
  MRCC_RETURN_IF_ERROR(fp::Maybe("tree.build.alloc"));
  MRCC_RETURN_IF_ERROR(builder.status());
  std::vector<double> scratch;
  // Identical chunked fold to the in-process sharded build (mrcc.cc):
  // chunks arrive in order and cover [begin, end) exactly once, and the
  // per-point classify/sanitize steps match, so this tree equals the
  // slice a single-process worker would have counted.
  const ReadAheadScanner scanner(*source, options.params.read_ahead_chunks);
  MRCC_RETURN_IF_ERROR(scanner.ScanChunks(
      begin, end, ChunkPointsFor(options.params),
      [&](size_t first, std::span<const double> values) -> Status {
        const size_t count = values.size() / num_dims;
        for (size_t j = 0; j < count; ++j) {
          std::span<const double> point =
              values.subspan(j * num_dims, num_dims);
          if (fp::MaybeTrue("source.read.corrupt")) {
            scratch.assign(point.begin(), point.end());
            scratch[0] = std::numeric_limits<double>::quiet_NaN();
            point = scratch;
          }
          const PointAction action = ClassifyPoint(point, policy);
          if (action == PointAction::kReject) {
            return Status::InvalidArgument(
                "point " + std::to_string(first + j) + " of " +
                source->Name() +
                " has a NaN/Inf/out-of-[0,1) value; normalize the data "
                "or pick a bad_point_policy");
          }
          if (action == PointAction::kSkip) continue;
          if (action == PointAction::kClamp) {
            if (point.data() != scratch.data()) {
              scratch.assign(point.begin(), point.end());
            }
            SanitizePoint(scratch, policy);
            point = scratch;
          }
          MRCC_RETURN_IF_ERROR(builder.Add(point));
        }
        return Status::OK();
      }));
  return std::move(builder).Finish();
}

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
  Result<CountingTree> tree =
      BuildShardTree(options, plan.begin, plan.end);
  MRCC_RETURN_IF_ERROR(tree.status());
  ShardMeta meta;
  meta.begin = plan.begin;
  meta.end = plan.end;
  meta.point_count = plan.end - plan.begin;
  MRCC_RETURN_IF_ERROR(WriteShardArtifact(
      *tree, meta, ShardArtifactPath(options.work_dir, index)));
  // Strictly after the artifact's rename: a kill between the two lines
  // leaves a stale-false hint, which resume re-verifies away; the
  // reverse (true bit, no artifact) cannot happen.
  return MarkShardDone(ManifestPath(options.work_dir), index);
}

Result<CountingTree> LoadOrRebuildShard(const ShardedBuildOptions& options,
                                        const BuildManifest& manifest,
                                        size_t index) {
  const ShardPlan& plan = manifest.shards[index];
  const std::string path = ShardArtifactPath(options.work_dir, index);
  Result<CountingTree> loaded(Status::Internal("shard load not attempted"));
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
        loaded = std::move(artifact->tree);
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
  return BuildShardTree(options, plan.begin, plan.end);
}

Result<FoldedShards> MergeShardTrees(const ShardedBuildOptions& options,
                                     const BuildManifest& manifest) {
  Result<CountingTree> tree =
      LoadOrRebuildShard(options, manifest, 0);
  MRCC_RETURN_IF_ERROR(tree.status());
  MergeTreeStats stats;
  for (size_t i = 1; i < manifest.shards.size(); ++i) {
    Result<CountingTree> next = LoadOrRebuildShard(options, manifest, i);
    MRCC_RETURN_IF_ERROR(next.status());
    MRCC_RETURN_IF_ERROR(fp::Maybe("tree.merge.alloc"));
    // Left-to-right fold in partition order: the layout-preserving
    // InsertTree reproduces the serial tree exactly once sealed
    // (core/counting_tree.h). One source is resident at a time.
    Result<MergeTreeStats> merged = tree->InsertTree(*next);
    MRCC_RETURN_IF_ERROR(merged.status());
    stats += *merged;
  }
  tree->Seal();
  MetricsRegistry::Global().counter("tree.merge.conflict_cells").Add(
      static_cast<int64_t>(stats.cells_merged));
  return FoldedShards{std::move(tree).value(), stats};
}

Result<MrCCResult> MergeShards(const ShardedBuildOptions& options,
                               const BuildManifest& manifest) {
  Result<ChunkedBinaryDataSource> source = OpenDataset(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  MRCC_RETURN_IF_ERROR(options.params.Validate(source->NumDims()));
  const int num_threads = ResolveThreadCount(options.params.num_threads);

  MrCCResult result;
  result.stats.num_threads = num_threads;
  Timer total;

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
  result.stats.tree_merge = folded->merge_stats;
  CountingTree& tree = folded->tree;
  result.stats.effective_resolutions = tree.num_resolutions();
  result.stats.tree_memory_bytes = tree.MemoryBytes();

  // From here the pipeline is MrCC::Run's phases 2-3 verbatim: β-search
  // over the merged tree, geometric cluster merge, labeling scan. The
  // merged tree equals the serial tree, every phase is deterministic, so
  // the result is bit-identical to the single-process run.
  BudgetTracker tracker(options.params.budget);
  phase.Reset();
  BetaFinderOptions finder_options;
  finder_options.alpha = options.params.alpha;
  finder_options.full_mask = options.params.full_mask;
  finder_options.num_threads = num_threads;
  result.stats.beta_search_threads = num_threads;
  {
    MRCC_TRACE_SPAN("beta.search");
    Result<BetaSearchResult> search =
        RunBetaSearch(tree, finder_options, &tracker);
    MRCC_RETURN_IF_ERROR(search.status());
    result.beta_clusters = std::move(search->betas);
    result.stats.beta_search = search->stats;
  }
  result.stats.beta_search_seconds = phase.ElapsedSeconds();

  phase.Reset();
  result.clustering = MergeBetaClusters(
      result.beta_clusters, source->NumDims(), &result.beta_to_cluster);
  result.stats.labeling_threads = num_threads;
  PrefetchStats label_prefetch;
  Result<std::vector<int>> labels = LabelPoints(
      result.beta_clusters, result.beta_to_cluster, *source, num_threads,
      options.params.bad_point_policy, ChunkPointsFor(options.params),
      options.params.read_ahead_chunks, &label_prefetch);
  MRCC_RETURN_IF_ERROR(labels.status());
  result.clustering.labels = std::move(*labels);
  result.stats.prefetch_stalls = label_prefetch.stalls;
  result.stats.prefetch_queue_full_waits = label_prefetch.queue_full_waits;
  result.stats.cluster_build_seconds = phase.ElapsedSeconds();
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

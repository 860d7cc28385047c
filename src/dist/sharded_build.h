// Multi-process sharded build orchestration.
//
// The distributed pipeline splits the paper's single data scan across N
// worker processes: each worker counts one contiguous point partition
// into a Counting-tree with the pipeline's shared range build
// (BuildTreeOverRange, core/mrcc.h) and publishes it as a checksummed
// artifact (dist/shard_io.h); a merger then turns each artifact into its
// key order as it loads (CountingTree::Flush), folds them all with one
// CountingTree::Fold (one k-way merge and one layout on the run's
// threads) and runs the pipeline's shared cluster tail (ClusterTree:
// budget drops, β-search, cluster merge, labeling) once over the result.
//
// Why this is bit-identical to a single-process run: the fold over
// ordered contiguous partitions ranks every artifact's cells after the
// earlier artifacts', so the one layout reproduces the serial
// build's tree node-for-node and cell-for-cell (core/counting_tree.h),
// and every downstream stage is deterministic at any thread count — so
// labels, clusters, and even the serialized tree bytes match the
// single-process golden hashes exactly (tests/golden_regression_test.cc).
//
// Crash-safety model (DESIGN.md §16):
//   - every artifact and the manifest publish via WriteFileAtomic: a
//     SIGKILL leaves either nothing or a complete file, never a torn one;
//   - resume (BuildShard on an already-built shard) trusts only
//     "artifact exists and verifies", so a kill anywhere — mid-build,
//     mid-publish, between publish and manifest update — costs at most
//     one shard rebuild;
//   - the merger retries transient artifact-load failures with jittered
//     backoff (dist/retry.h) and, when an artifact is truly lost or
//     corrupt, rebuilds that shard's tree in-process from its partition
//     range — a deleted or rotted shard degrades throughput, never
//     correctness.

#pragma once

#include <cstdint>
#include <string>

#include "core/mrcc.h"
#include "dist/manifest.h"
#include "dist/retry.h"
#include "dist/shard_io.h"

namespace mrcc {
namespace dist {

/// One sharded build's configuration, shared by workers and merger.
struct ShardedBuildOptions {
  /// Binary dataset file (SaveBinary format).
  std::string dataset_path;

  /// Directory holding the manifest and shard artifacts. Must exist.
  std::string work_dir;

  /// Partition count when creating a fresh plan (ignored on resume —
  /// the manifest's plan wins).
  int num_shards = 4;

  /// Pipeline parameters. Result-affecting fields are hashed into the
  /// manifest; a resume with different ones is refused.
  MrCCParams params;

  /// Retry policy for shard-artifact loads in the merger.
  RetryPolicy retry;
};

/// Canonical file locations inside the work directory.
std::string ManifestPath(const std::string& work_dir);
std::string ShardArtifactPath(const std::string& work_dir, size_t index);

/// Creates the build plan, or resumes an existing one. A manifest
/// already in the work directory is validated against the dataset's
/// current fingerprint, the parameter hash, and the dataset shape;
/// any mismatch is InvalidArgument (stale state must fail loudly, not
/// fold silently). With no manifest present, a fresh plan is written.
[[nodiscard]] Result<BuildManifest> PrepareManifest(
    const ShardedBuildOptions& options);

/// True when shard `index`'s artifact exists, its footer and checksum
/// verify (ReadShardMeta), and it covers exactly the planned partition —
/// the authoritative completion check (the manifest's done bit is only a
/// hint). The tree is not parsed here: a resume would otherwise parse
/// every artifact twice. One whose checksum holds but whose tree does
/// not parse fails the merger's load, which retries and then rebuilds it.
bool ShardComplete(const ShardedBuildOptions& options,
                   const BuildManifest& manifest, size_t index);

/// Builds the Counting-tree over points [begin, end) of the dataset —
/// the worker's core: BuildTreeOverRange over the block-read backend,
/// MrCC::Run's scan and build on one worker. When
/// `tally` is non-null it receives (+=) the scan's counters, whose skip
/// and clamp counts the artifact footer carries.
[[nodiscard]] Result<CountingTree> BuildShardTree(
    const ShardedBuildOptions& options, uint64_t begin, uint64_t end,
    ScanTally* tally = nullptr);

/// One worker's whole job: skip if ShardComplete (resume), else build
/// the partition's tree, publish the artifact atomically, then flip the
/// manifest's done bit. Safe to run concurrently with other shards'
/// workers (distinct artifacts; manifest updates are locked).
[[nodiscard]] Status BuildShard(const ShardedBuildOptions& options,
                                const BuildManifest& manifest, size_t index);

/// Loads shard `index`'s artifact with retry; on exhausted retries or a
/// verification failure, rebuilds the tree in-process from the partition
/// range (counted in the `shard.rebuilds` metric), with the meta the
/// worker would have written — skip and clamp counts included. Honors
/// the `merge.shard_load` failpoint on every load attempt.
[[nodiscard]] Result<ShardArtifact> LoadOrRebuildShard(
    const ShardedBuildOptions& options, const BuildManifest& manifest,
    size_t index);

/// MergeShardTrees' result: the folded, serial-equivalent tree, the
/// fold's counters (every shard's cells, the first's all created), the
/// shards' bad-point counts summed, and the fold pool's thread count.
struct FoldedShards {
  CountingTree tree;
  MergeTreeStats merge_stats;
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;
  int fold_threads = 1;
};

/// The merger's tree half: loads (or rebuilds) every shard, flushing
/// each into its key order as it arrives, and folds them in partition
/// order with one CountingTree::Fold on a pool of
/// options.params.num_threads threads into the serial-equivalent tree.
/// Honors the `tree.merge.alloc` failpoint once, before the fold.
[[nodiscard]] Result<FoldedShards> MergeShardTrees(
    const ShardedBuildOptions& options, const BuildManifest& manifest);

/// The merger's whole job: MergeShardTrees, then ClusterTree — the same
/// tail MrCC::Run runs after its tree build (memory-budget resolution
/// drops, tree stats, deadline gates, β-search, cluster merge, labeling
/// scan), producing a bit-identical MrCCResult.
[[nodiscard]] Result<MrCCResult> MergeShards(
    const ShardedBuildOptions& options, const BuildManifest& manifest);

/// In-process end-to-end driver: prepare (or resume) the manifest,
/// build every incomplete shard, merge. The multi-process path
/// (tools/mrcc-build) runs the same three calls with BuildShard fanned
/// out across worker processes.
[[nodiscard]] Result<MrCCResult> RunShardedBuild(
    const ShardedBuildOptions& options);

}  // namespace dist
}  // namespace mrcc

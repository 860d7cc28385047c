// Multi-process sharded build orchestration.
//
// The distributed pipeline splits the paper's single data scan across N
// worker processes: each worker counts one contiguous point partition
// into a Counting-tree with the pipeline's one source build (BuildTree,
// core/mrcc.h, on one thread) and publishes it as a checksummed artifact
// (dist/shard_io.h); a merger then runs the pipeline's one run driver
// (RunPipeline) with its own assembly step — turn each artifact into its
// key order as it loads (CountingTree::Flush) and fold them all with one
// CountingTree::Fold (one k-way merge and one layout on the run's
// threads) — followed by the shared tail (budget drops, β-search,
// cluster merge, labeling) once over the result.
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
/// the worker's core: the pipeline's one source build (BuildTree,
/// core/mrcc.h) on one thread over the block-read backend, so the tree
/// equals the one a single-process run counts over the same slice. When
/// `stats` is non-null it receives the build's stats, whose skip and
/// clamp counts the artifact footer carries.
[[nodiscard]] Result<CountingTree> BuildShardTree(
    const ShardedBuildOptions& options, uint64_t begin, uint64_t end,
    MrCCStats* stats = nullptr);

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

/// The merger's assembly step: loads (or rebuilds) every shard,
/// flushing each into its key order as it arrives, and folds them in
/// partition order with one CountingTree::Fold on a pool of
/// options.params.num_threads threads into the serial-equivalent tree.
/// Fills stats' tree_build_threads (the fold pool), tree_merge (the
/// fold's counters: every shard's cells, the first's all created) and
/// the shards' bad-point counts, summed. Emits the `merge.fold` span.
/// Honors the `tree.merge.alloc` failpoint once, before the fold.
[[nodiscard]] Result<CountingTree> MergeShardTrees(
    const ShardedBuildOptions& options, const BuildManifest& manifest,
    MrCCStats* stats);

/// The merger's whole job: the run driver (RunPipeline, core/mrcc.h)
/// with MergeShardTrees as its assembly step, then the same tail
/// MrCC::Run runs after its tree build (memory-budget resolution drops,
/// tree stats, deadline gates, β-search, cluster merge, labeling scan),
/// producing a bit-identical MrCCResult.
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

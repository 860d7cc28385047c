// Public driver for the MrCC method (the paper's primary contribution).
//
// Pipeline: build the Counting-tree over the normalized dataset (§III-A),
// search it for β-clusters with Laplacian masks + binomial tests + MDL
// relevance cuts (§III-B), then merge overlapping β-clusters into the final
// correlation clusters and label the points (§III-C).
//
// MrCC is deterministic, performs no distance computations, and does not
// take the number of clusters as input. Its two parameters are the test
// significance `alpha` and the number of resolutions `H`; the paper fixes
// alpha = 1e-10 and H = 4 for all experiments (§IV-E).
//
// Run(const DataSource&) is the single pipeline entry point: in-memory
// datasets and out-of-core binary files run the same code through the
// DataSource abstraction. Every stage is parallel over contiguous point /
// cell slices with order-invariant reductions, so any `num_threads`
// produces bit-identical results to the serial run (see DESIGN.md §8).

#pragma once

#include <string>
#include <vector>

#include "common/budget.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/counting_tree.h"
#include "core/subspace_clusterer.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/prefetch.h"
#include "data/sanitize.h"

namespace mrcc {

/// Sliding-window mode of the incremental engine (core/streaming_mrcc.h):
/// keep only (approximately) the most recent `points` points counted in
/// the tree, evicting whole generations at a time. Disabled by default —
/// every point ever pushed stays counted.
struct WindowParams {
  /// Target number of retained points; 0 disables the window.
  size_t points = 0;

  /// Eviction granularity: the window is maintained as this many
  /// generation sub-trees of points/generations points each, and old
  /// points leave a generation at a time (the window is exact to one
  /// generation). Must be >= 1.
  size_t generations = 8;

  bool enabled() const { return points > 0; }

  [[nodiscard]] Status Validate() const;
};

/// Tunable parameters of MrCC (paper §IV-D/E defaults).
struct MrCCParams {
  /// Significance level of the β-cluster binomial test, in (0, 1).
  double alpha = 1e-10;

  /// Number of multi-resolution levels H (>= 3). Values beyond
  /// CountingTree::kMaxResolutions + 1 are clamped when building the tree.
  int num_resolutions = 4;

  /// Ablation: use the full order-3 Laplacian mask instead of the O(d)
  /// face-only mask. Exponential in d; requires d <= kMaxFullMaskDims.
  bool full_mask = false;

  /// Worker threads for every pipeline stage: 0 = hardware concurrency,
  /// 1 = the serial code path, n = exactly n threads. All thread counts
  /// produce bit-identical results; stages additionally cap their own
  /// counts so tiny inputs are not oversharded (see MrCCStats).
  int num_threads = 1;

  /// What to do with NaN/Inf/out-of-[0,1) input points (see
  /// data/sanitize.h). Applied identically in both data passes — a point
  /// is either counted and labelable, or invisible to both. The default
  /// preserves the historical reject-on-first-bad-value contract.
  BadPointPolicy bad_point_policy = BadPointPolicy::kReject;

  /// Resource caps for one run; zero fields mean unlimited. Exceeding the
  /// memory cap drops tree resolution (H) instead of growing; exceeding
  /// the wall deadline returns partial results. Both mark the run
  /// degraded in MrCCStats rather than failing it.
  ResourceBudget budget;

  /// Chunk size (points) of the streaming data scans; 0 = automatic: a
  /// 4096-point default, shrunk so all shards' chunk buffers together
  /// (read_ahead_chunks deep each) stay within half of
  /// budget.max_memory_bytes. The chunk size never changes results — any
  /// value yields bit-identical output.
  size_t chunk_points = 0;

  /// Read-ahead depth (chunk buffers) of the pipelined data scans: a
  /// background reader thread per scan keeps up to this many chunks
  /// buffered ahead of the consumer, overlapping chunk I/O with tree
  /// insertion / labeling (data/prefetch.h). 2 = double buffering (the
  /// default), 0 = the synchronous scan path. Never changes results —
  /// every depth yields bit-identical output; it only moves wall time.
  size_t read_ahead_chunks = 2;

  /// Optional sliding-window mode: when enabled, Run() routes through
  /// the incremental streaming engine and clusters only the trailing
  /// window of the input (labels still cover every point).
  WindowParams window;

  /// Data-independent parameter checks (alpha, H, threads, budget).
  [[nodiscard]] Status Validate() const;

  /// Full validation against a concrete input: everything Validate()
  /// covers plus the checks that need the dataset's dimensionality (the
  /// d bounds, the full-mask cost gate). MrCC::Run calls this once at
  /// entry — it is the single parameter gate of the pipeline; the stage
  /// entry points below it only re-check their own narrow public
  /// contracts (e.g. CountingTree::Empty, which is callable directly).
  [[nodiscard]] Status Validate(size_t num_dims) const;
};

/// Timing and size measurements of one MrCC run.
struct MrCCStats {
  double tree_build_seconds = 0.0;

  /// Seconds spent folding sub-trees into the run's tree: the window
  /// snapshot's fold (core/streaming_mrcc.h) and the shard merger's
  /// (dist/sharded_build.h). Always 0 for the batch build (BuildTree),
  /// which partitions by key space and folds nothing.
  double tree_merge_seconds = 0.0;

  double beta_search_seconds = 0.0;
  double cluster_build_seconds = 0.0;
  double total_seconds = 0.0;

  /// Resolved engine-wide thread budget (params.num_threads after the
  /// 0 = hardware-concurrency mapping).
  int num_threads = 1;

  /// Threads actually used per stage (each stage caps the budget by the
  /// work available: shards by points, labeling by slice size). A window
  /// snapshot's and the shard merger's tree build is their fold, merged
  /// and laid out on a pool of the run's threads.
  int tree_build_threads = 1;
  int beta_search_threads = 1;
  int labeling_threads = 1;

  /// Heap footprint of the Counting-tree after construction.
  size_t tree_memory_bytes = 0;

  /// Materialized cells per level (index 0 unused; levels 1..H-1).
  std::vector<size_t> cells_per_level;

  // ---- Work counters (observability layer, DESIGN.md §10). All are
  // deterministic: the same input and parameters yield the same counts
  // at every thread count. Each stage returns its own counters struct;
  // MrCCStats aggregates them here instead of threading mutable stats
  // pointers through stage APIs.

  /// The β-search's work counters (convolutions, candidates, binomial
  /// tests, acceptances, deadline_hit), exactly as RunBetaSearch
  /// returned them.
  BetaSearchStats beta_search;

  /// The counters of the engine's one tree fold, CountingTree::Fold: of
  /// the window snapshot's generations or of the shard merger's
  /// artifacts (see MergeTreeStats; every cell of the first part counts
  /// as created). cells_merged counts cells present in more than one
  /// folded tree — high values relative to the tree size mean the
  /// sources cover the same regions, the expected regime — and bound the
  /// fold's extra work. All zero for the batch build (BuildTree), which
  /// folds nothing.
  MergeTreeStats tree_merge;

  /// Slowest worker scan divided by the mean worker scan during the
  /// tree build (1 = perfectly balanced, 0 = one worker). Workers scan
  /// equal point slices, so imbalance measures data skew and
  /// scheduling, not slicing.
  double shard_imbalance = 0.0;

  // ---- Graceful degradation and input hygiene (DESIGN.md §11).

  /// True when the run completed but gave up something to finish: tree
  /// resolution under memory pressure, β-search depth or the labeling
  /// scan under the wall deadline, worker threads under spawn failure.
  /// Every concession is spelled out in degradation_reasons.
  bool degraded = false;

  /// Human-readable reasons the run degraded, in the order they occurred.
  std::vector<std::string> degradation_reasons;

  /// Resolutions H the run actually used after any memory-pressure drops
  /// (== params.num_resolutions when not degraded; capped by the tree's
  /// kMaxResolutions clamp either way).
  int effective_resolutions = 0;

  /// Input points dropped / clamped into [0,1) by the bad-point policy
  /// during the tree-build scan (0 under kReject, which fails instead).
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;

  // ---- Out-of-core scan telemetry (DESIGN.md §14).

  /// Chunks delivered by the tree-build scan across all shards.
  uint64_t chunks_scanned = 0;

  /// Effective chunk size (points) the scans used (params.chunk_points
  /// after the 0 = automatic mapping).
  size_t chunk_points = 0;

  /// Upper bound on raw points resident in scan buffers at any instant
  /// (shards × read-ahead depth × chunk size; zero-copy sources stay
  /// below it).
  size_t resident_point_bound = 0;

  // ---- Pipelined-scan telemetry (DESIGN.md §15).

  /// Read-ahead depth the scans used (params.read_ahead_chunks).
  size_t read_ahead_chunks = 0;

  /// Times a scan consumer blocked on an empty read-ahead ring (I/O
  /// slower than compute), summed over the build + labeling scans.
  /// Timing-dependent diagnostic, like shard_imbalance — NOT
  /// deterministic across runs.
  uint64_t prefetch_stalls = 0;

  /// Times a reader thread blocked on a full read-ahead ring (compute
  /// slower than I/O — the healthy regime). Timing-dependent diagnostic.
  uint64_t prefetch_queue_full_waits = 0;
};

/// Complete output of one MrCC run.
struct MrCCResult {
  /// Final correlation clusters and per-point labels.
  Clustering clustering;

  /// The β-clusters found, in discovery order.
  std::vector<BetaCluster> beta_clusters;

  /// Index of the correlation cluster each β-cluster was merged into.
  std::vector<int> beta_to_cluster;

  MrCCStats stats;
};

/// The Multi-resolution Correlation Clustering method.
class MrCC : public SubspaceClusterer {
 public:
  explicit MrCC(MrCCParams params = MrCCParams());

  const MrCCParams& params() const { return params_; }

  /// Full run over any DataSource backend — the single pipeline entry
  /// point. The source must provide points normalized to [0,1)^d.
  [[nodiscard]] Result<MrCCResult> Run(const DataSource& source) const;

  /// Full run over an in-memory dataset (a MemoryDataSource wrapper).
  [[nodiscard]] Result<MrCCResult> Run(const Dataset& data) const;

  // SubspaceClusterer interface.
  std::string name() const override { return "MrCC"; }
  [[nodiscard]] Result<Clustering> Cluster(const Dataset& data) override;

 private:
  /// The window-mode pipeline: streams the source through the incremental
  /// engine (core/streaming_mrcc.h) so only the trailing window is
  /// counted, then labels every point against the window's clusters.
  [[nodiscard]] Result<MrCCResult> RunWindowed(const DataSource& source) const;

  MrCCParams params_;
};

// ---- The pipeline body. Three engines drive it — the batch engine
// (MrCC::Run), the sliding-window engine (core/streaming_mrcc.h) and the
// sharded merger (dist/sharded_build.h) — and differ only in how they
// assemble the sealed tree; everything else is declared here, once.

/// Effective chunk size of the streaming scans: an explicit
/// params.chunk_points wins; otherwise kDefaultChunkPoints, shrunk so
/// `shards` concurrent scans' chunk buffers — read_ahead_chunks deep
/// each — fit in half of budget.max_memory_bytes (the other half belongs
/// to the tree).
/// Never zero. The chunk size never changes results, only memory.
size_t ChunkPointsFor(const MrCCParams& params, size_t num_dims, int shards);

/// The batch engine's tree (MrCC::Run's phase 1): counts every point of
/// `source` on up to `num_threads` workers — fewer for small inputs, or
/// when the pool spawns fewer (then stats->degraded) — with
/// CountingTree::BuildPartitioned: each worker scans one contiguous slice
/// in `chunk_points`-point chunks through a read-ahead scanner and
/// IngestPoint, and the records are sorted by key-space partition and
/// laid out once. The tree's bytes equal the serial build's at every
/// worker count; nothing is folded. Fills stats' tree-build threads,
/// skip/clamp counts, scan telemetry and shard_imbalance, and sets
/// tree_merge_seconds to 0. Emits one `tree.build.shard` span per worker
/// scan. Honors `tree.build.alloc`, and `tree.merge.alloc` (the shared
/// record buffers) when more than one worker runs.
[[nodiscard]] Result<CountingTree> BuildTree(const DataSource& source,
                                             const MrCCParams& params,
                                             int num_threads,
                                             size_t chunk_points,
                                             MrCCStats* stats);

/// Counters of one BuildTreeOverRange scan. Callers that run several
/// scans sum them in slice order, so the totals are deterministic.
struct ScanTally {
  /// Points dropped / clamped by the bad-point policy.
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;

  /// The read-ahead scanner's counters (prefetch.chunks: chunks the
  /// scan delivered).
  PrefetchStats prefetch;
};

/// Counts points [begin, end) of `source` into a sealed tree with
/// params.num_resolutions levels on the calling thread — BuildTree's
/// scan and build, one worker — streaming `chunk_points`-point chunks
/// through a read-ahead scanner of params.read_ahead_chunks depth and
/// each point through IngestPoint under params.bad_point_policy. The
/// tree equals the slice a serial scan would have counted, at every
/// chunk size and depth. `tally` accumulates (+=) the scan's counters.
/// Honors the `tree.build.alloc` failpoint.
[[nodiscard]] Result<CountingTree> BuildTreeOverRange(
    const DataSource& source, size_t begin, size_t end,
    const MrCCParams& params, size_t chunk_points, ScanTally* tally);

/// Publishes one tree fold's work counters — `tree.merge.conflict_cells`
/// (cells_merged) and `tree.merge.cells_created` — to the global metrics
/// registry. Every engine that folds trees (the window snapshot, the
/// shard merger) reports through this one call.
void PublishMergeMetrics(const MergeTreeStats& stats);

/// The pipeline's tail over a sealed tree, shared by every engine:
/// drops the deepest level while `tracker` reports memory pressure,
/// records the tree's stats, returns an all-noise clustering when the
/// wall deadline has already passed, then runs the β-search, merges the
/// β-clusters and — when `label_source` is non-null — labels its points
/// in a `chunk_points`-chunk scan. Fills `result`'s clusters, labels and
/// the matching MrCCStats fields; each concession is noted in
/// stats.degradation_reasons. Emits the `beta.search`,
/// `cluster.merge_betas` and `cluster.label_points` spans.
[[nodiscard]] Status ClusterTree(CountingTree& tree, const MrCCParams& params,
                                 int num_threads,
                                 const DataSource* label_source,
                                 size_t chunk_points, BudgetTracker& tracker,
                                 MrCCResult* result);

}  // namespace mrcc


#include "core/mrcc.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/memory.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/laplacian_mask.h"
#include "core/streaming_mrcc.h"
#include "data/ingest_scan.h"
#include "data/prefetch.h"

namespace mrcc {
namespace {

/// Slices below this size are not worth a thread: a worker's fixed
/// costs (its wake-up, its share of the partition pass, its range's
/// sort histograms) outweigh what it saves on a tiny input, and the
/// thread count never changes the result anyway.
constexpr size_t kMinPointsPerWorker = 2048;

/// Chunk buffers live per scan: the read-ahead ring holds up to
/// read_ahead_chunks of them, and a synchronous scan (depth 0) holds one.
size_t BuffersPerScan(const MrCCParams& params) {
  return std::max<size_t>(1, params.read_ahead_chunks);
}

/// Publishes a run's tree-build scan telemetry, the same for the batch
/// build and the window feed.
void PublishScanMetrics(const MrCCStats& stats) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("tree.chunks_scanned").Add(
      static_cast<int64_t>(stats.chunks_scanned));
  metrics.gauge("memory.resident_points").SetMax(
      static_cast<int64_t>(stats.resident_point_bound));
  if (stats.points_skipped > 0) {
    metrics.counter("input.points_skipped").Add(
        static_cast<int64_t>(stats.points_skipped));
  }
  if (stats.points_clamped > 0) {
    metrics.counter("input.points_clamped").Add(
        static_cast<int64_t>(stats.points_clamped));
  }
}

/// The run's tail over its sealed tree (see RunPipeline). Times the
/// β-search and the cluster phase as laps of `clock`, which started
/// with the run.
Status ClusterTree(CountingTree& tree, const MrCCParams& params,
                   int num_threads, const DataSource* label_source,
                   const Timer& clock, BudgetTracker& tracker,
                   MrCCResult* result) {
  MrCCStats& stats = result->stats;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const auto note_degraded = [&stats](std::string reason) {
    stats.degraded = true;
    stats.degradation_reasons.push_back(std::move(reason));
  };

  // Memory pressure: trade resolution for footprint, the paper's own
  // lever — H is a quality knob, so a coarser tree is a degraded but
  // valid run, unlike an OOM kill. Each drop is exact: the remaining
  // levels match a tree built with the smaller H from the start.
  while (tracker.MemoryPressure(tree.MemoryBytes())) {
    const size_t before = tree.MemoryBytes();
    if (!tree.DropDeepestLevel().ok()) {
      // Already at the paper's minimum H = 3; nothing left to shed.
      note_degraded("memory budget still exceeded at the minimum H = 3 (" +
                    std::to_string(tree.MemoryBytes()) +
                    " bytes); continuing");
      break;
    }
    metrics.counter("budget.depth_drops").Add(1);
    note_degraded("memory pressure: dropped the deepest resolution level "
                  "(H now " + std::to_string(tree.num_resolutions()) +
                  ", " + std::to_string(before) + " -> " +
                  std::to_string(tree.MemoryBytes()) + " bytes)");
  }
  stats.effective_resolutions = tree.num_resolutions();
  stats.tree_memory_bytes = tree.MemoryBytes();
  stats.cells_per_level.assign(static_cast<size_t>(tree.num_resolutions()),
                               0);
  for (int h = 1; h < tree.num_resolutions(); ++h) {
    stats.cells_per_level[static_cast<size_t>(h)] = tree.NumCellsAtLevel(h);
    metrics.gauge("tree.cells.level" + std::to_string(h)).Set(
        static_cast<int64_t>(stats.cells_per_level[static_cast<size_t>(h)]));
  }
  metrics.gauge("tree.memory_bytes").Set(
      static_cast<int64_t>(stats.tree_memory_bytes));

  // Deadline gate: past the wall budget the most useful answer is the
  // cheapest valid one — no clusters, every point noise — returned now
  // instead of starting a search that would blow the deadline further.
  const size_t label_points =
      label_source != nullptr ? label_source->NumPoints() : 0;
  if (tracker.DeadlineExceeded()) {
    note_degraded("wall deadline exceeded after the tree build (" +
                  std::to_string(tracker.ElapsedSeconds()) +
                  "s): returning an empty clustering, all points noise");
    result->clustering.labels.assign(label_points, kNoiseLabel);
    return Status::OK();
  }

  // β-cluster search, parallel over the cells of each level.
  const double search_start = clock.ElapsedSeconds();
  BetaFinderOptions finder_options;
  finder_options.alpha = params.alpha;
  finder_options.full_mask = params.full_mask;
  finder_options.num_threads = num_threads;
  stats.beta_search_threads = num_threads;
  {
    MRCC_TRACE_SPAN("beta.search");
    Result<BetaSearchResult> search =
        RunBetaSearch(tree, finder_options, &tracker);
    if (!search.ok()) return search.status();
    result->beta_clusters = std::move(search->betas);
    stats.beta_search = search->stats;
  }
  if (stats.beta_search.deadline_hit) {
    note_degraded(
        "wall deadline exceeded during the β-search: the β-clusters are "
        "a deterministic prefix of the full search");
  }
  const double cluster_start = clock.ElapsedSeconds();
  stats.beta_search_seconds = cluster_start - search_start;

  // Merge β-clusters (geometry only), then label every point in a second
  // scan of the source, parallel over point slices.
  {
    MRCC_TRACE_SPAN_N("cluster.merge_betas",
                      static_cast<int64_t>(result->beta_clusters.size()));
    result->clustering = MergeBetaClusters(
        result->beta_clusters, tree.num_dims(), &result->beta_to_cluster);
  }
  if (label_source != nullptr) {
    stats.labeling_threads = num_threads;
    if (tracker.DeadlineExceeded()) {
      // The cluster geometry above is already paid for; the labeling scan
      // (a full second pass over the data) is what gets cut.
      note_degraded("wall deadline exceeded before labeling: skipping the "
                    "labeling scan, all points labeled noise");
      result->clustering.labels.assign(label_points, kNoiseLabel);
    } else {
      Result<std::vector<int>> labels(Status::Internal("labeling not run"));
      PrefetchStats label_prefetch;
      {
        MRCC_TRACE_SPAN_N("cluster.label_points",
                          static_cast<int64_t>(label_points));
        labels = LabelPoints(result->beta_clusters, result->beta_to_cluster,
                             *label_source, num_threads,
                             params.bad_point_policy, stats.chunk_points,
                             params.read_ahead_chunks, &label_prefetch);
      }
      if (!labels.ok()) return labels.status();
      result->clustering.labels = std::move(*labels);
      stats.prefetch_stalls += label_prefetch.stalls;
      stats.prefetch_queue_full_waits += label_prefetch.queue_full_waits;
    }
  }
  stats.cluster_build_seconds = clock.ElapsedSeconds() - cluster_start;
  return Status::OK();
}

}  // namespace

Result<CountingTree> BuildTree(const DataSource& source, size_t begin,
                               size_t end, const MrCCParams& params,
                               int num_threads, size_t chunk_points,
                               MrCCStats* stats) {
  const size_t n = end - begin;
  const int want_workers = std::max(
      1, std::min<int>(num_threads,
                       static_cast<int>(n / kMinPointsPerWorker)));
  if (n == 0) {
    stats->tree_build_threads = 1;
    return CountingTree::Empty(source.NumDims(), params.num_resolutions);
  }

  // The pool may come up short of workers (thread-limit pressure, the
  // `pool.spawn` failpoint); the build slices by what it actually got.
  ThreadPool pool(want_workers);
  const int workers = pool.num_threads();
  if (workers < want_workers) {
    stats->degraded = true;
    stats->degradation_reasons.push_back(
        "thread pool spawned " + std::to_string(workers) + " of " +
        std::to_string(want_workers) +
        " tree-build workers; continuing with fewer (results unchanged)");
  }
  stats->tree_build_threads = workers;

  // tree.build.alloc stands in for the tree's allocations failing under
  // memory pressure; tree.merge.alloc for the buffers the workers share.
  MRCC_RETURN_IF_ERROR(fp::Maybe("tree.build.alloc"));
  if (workers > 1) MRCC_RETURN_IF_ERROR(fp::Maybe("tree.merge.alloc"));

  // Each worker's scan counters and scan seconds, summed over the build's
  // rounds; reduced in slice order below so the totals are deterministic
  // like everything else.
  std::vector<ScanTally> tallies(static_cast<size_t>(workers));
  std::vector<double> scan_seconds(static_cast<size_t>(workers), 0.0);
  Result<CountingTree> tree = CountingTree::BuildPartitioned(
      source.NumDims(), params.num_resolutions, n, pool,
      [&](int worker, size_t first_point, size_t last_point,
          CountingTree::SliceRun& run) -> Status {
        MRCC_TRACE_SPAN_N("tree.build.shard",
                          static_cast<int64_t>(last_point - first_point));
        Timer timer;
        const Status scanned = IngestScan(
            source, begin + first_point, begin + last_point, chunk_points,
            params.read_ahead_chunks, params.bad_point_policy,
            &tallies[static_cast<size_t>(worker)],
            [&run](size_t, std::span<const double> point) {
              return run.Insert(point);
            });
        scan_seconds[static_cast<size_t>(worker)] += timer.ElapsedSeconds();
        return scanned;
      });
  if (!tree.ok()) return tree.status();
  for (const ScanTally& tally : tallies) {
    stats->points_skipped += tally.points_skipped;
    stats->points_clamped += tally.points_clamped;
    stats->chunks_scanned += tally.prefetch.chunks;
    stats->prefetch_stalls += tally.prefetch.stalls;
    stats->prefetch_queue_full_waits += tally.prefetch.queue_full_waits;
  }

  // Worst-case raw points resident at once: every worker holding all of
  // its scan's chunk buffers (the read-ahead ring, or one buffer for a
  // synchronous scan). Zero-copy backends (memory, mmap) stay below it.
  const size_t buffers = BuffersPerScan(params);
  stats->resident_point_bound =
      static_cast<size_t>(workers) *
      std::min(buffers * chunk_points,
               (n + static_cast<size_t>(workers) - 1) /
                   static_cast<size_t>(workers));
  if (workers > 1) {
    // The imbalance diagnostic: slices are equal by construction, so a
    // skewed scan profile points at data (costly rows) or the machine.
    double sum = 0.0;
    double slowest = 0.0;
    for (double s : scan_seconds) {
      sum += s;
      slowest = std::max(slowest, s);
    }
    const double mean = sum / static_cast<double>(workers);
    stats->shard_imbalance = mean > 0.0 ? slowest / mean : 0.0;
    MetricsRegistry& metrics = MetricsRegistry::Global();
    for (double s : scan_seconds) {
      metrics.histogram("tree.shard_micros").Record(
          static_cast<int64_t>(s * 1e6));
    }
  }
  return tree;
}

size_t ChunkPointsFor(const MrCCParams& params, size_t num_dims, int shards) {
  if (params.chunk_points > 0) return params.chunk_points;
  size_t chunk = kDefaultChunkPoints;
  if (params.budget.max_memory_bytes > 0 && num_dims > 0 && shards > 0) {
    const size_t bytes_per_point = num_dims * sizeof(double);
    const size_t cap =
        params.budget.max_memory_bytes /
        (2 * static_cast<size_t>(shards) * BuffersPerScan(params) *
         bytes_per_point);
    chunk = std::clamp<size_t>(cap, 1, kDefaultChunkPoints);
  }
  return chunk;
}

Result<MrCCResult> RunPipeline(const MrCCParams& params, size_t num_dims,
                               size_t num_points,
                               const DataSource* label_source,
                               const AssembleTree& assemble) {
  // The pipeline's single parameter gate (see MrCCParams::Validate).
  MRCC_RETURN_IF_ERROR(params.Validate(num_dims));
  MRCC_TRACE_SPAN_N("mrcc.run", static_cast<int64_t>(num_points));
  const Timer clock;
  const int num_threads = ResolveThreadCount(params.num_threads);
  BudgetTracker tracker(params.budget);

  MrCCResult result;
  MrCCStats& stats = result.stats;
  stats.num_threads = num_threads;
  // Scans hold bounded chunks, so raw-point memory stays at
  // scans × read-ahead depth × chunk regardless of dataset size
  // (DESIGN.md §14).
  stats.chunk_points = ChunkPointsFor(params, num_dims, num_threads);
  stats.read_ahead_chunks = params.read_ahead_chunks;

  Result<CountingTree> tree = assemble(num_threads, stats.chunk_points,
                                       &stats);
  if (!tree.ok()) return tree.status();
  stats.tree_build_seconds = clock.ElapsedSeconds();
  if (stats.tree_merge.cells_created > 0) {
    // Only a fold creates cells from parts; the batch build folds nothing.
    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.counter("tree.merge.conflict_cells").Add(
        static_cast<int64_t>(stats.tree_merge.cells_merged));
    metrics.counter("tree.merge.cells_created").Add(
        static_cast<int64_t>(stats.tree_merge.cells_created));
  }

  MRCC_RETURN_IF_ERROR(ClusterTree(*tree, params, num_threads, label_source,
                                   clock, tracker, &result));
  stats.total_seconds = clock.ElapsedSeconds();
  // Allocator high-water mark since the last ResetPeak() — with the
  // bench harness's per-run reset this is the run's peak ("arena
  // high-water"); standalone it is a process-lifetime bound.
  MetricsRegistry::Global().gauge("memory.high_water_bytes").SetMax(
      MemoryTracker::PeakBytes());
  return result;
}

Status WindowParams::Validate() const {
  if (generations == 0) {
    return Status::InvalidArgument("window.generations must be >= 1");
  }
  return Status::OK();
}

Status MrCCParams::Validate() const {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  MRCC_RETURN_IF_ERROR(window.Validate());
  if (num_resolutions < 3) {
    return Status::InvalidArgument("num_resolutions (H) must be >= 3");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency)");
  }
  MRCC_RETURN_IF_ERROR(budget.Validate());
  return Status::OK();
}

Status MrCCParams::Validate(size_t num_dims) const {
  MRCC_RETURN_IF_ERROR(Validate());
  if (num_dims == 0 || num_dims > CountingTree::kMaxDims) {
    return Status::InvalidArgument(
        "dimensionality must be in [1, " +
        std::to_string(CountingTree::kMaxDims) + "]");
  }
  if (full_mask && num_dims > kMaxFullMaskDims) {
    return Status::InvalidArgument(
        "full_mask ablation supports at most " +
        std::to_string(kMaxFullMaskDims) + " dimensions (O(3^d) cost)");
  }
  return Status::OK();
}

MrCC::MrCC(MrCCParams params) : params_(params) {}

Result<MrCCResult> MrCC::Run(const DataSource& source) const {
  if (params_.window.enabled()) return RunWindowed(source);
  // Single-scan Counting-tree construction over the whole source, sliced
  // by points and partitioned by key space.
  return RunPipeline(
      params_, source.NumDims(), source.NumPoints(), &source,
      [&](int num_threads, size_t chunk_points,
          MrCCStats* stats) -> Result<CountingTree> {
        MRCC_TRACE_SPAN("tree.build");
        Result<CountingTree> tree =
            BuildTree(source, 0, source.NumPoints(), params_, num_threads,
                      chunk_points, stats);
        if (tree.ok()) PublishScanMetrics(*stats);
        return tree;
      });
}

Result<MrCCResult> MrCC::RunWindowed(const DataSource& source) const {
  const size_t n = source.NumPoints();
  return RunPipeline(
      params_, source.NumDims(), n, &source,
      [&](int num_threads, size_t chunk_points,
          MrCCStats* stats) -> Result<CountingTree> {
        Result<StreamingMrCC> engine =
            StreamingMrCC::Create(params_, source.NumDims());
        if (!engine.ok()) return engine.status();
        // Feed the whole source through the incremental engine in bounded
        // chunks (the feed is inherently serial: generation order is
        // stream order, which is exactly what the read-ahead scanner
        // preserves — the reader thread overlaps the next chunk's I/O with
        // PushChunk), then fold the trailing window; the run labels every
        // point against the window's clusters.
        PrefetchStats prefetch;
        const ReadAheadScanner scanner(source, params_.read_ahead_chunks);
        MRCC_RETURN_IF_ERROR(scanner.ScanChunks(
            0, n, chunk_points,
            [&](size_t, std::span<const double> values) {
              return engine->PushChunk(values);
            },
            &prefetch));
        stats->chunks_scanned = prefetch.chunks;
        stats->prefetch_stalls += prefetch.stalls;
        stats->prefetch_queue_full_waits += prefetch.queue_full_waits;
        stats->resident_point_bound =
            std::min<size_t>(BuffersPerScan(params_) * chunk_points, n);
        Result<CountingTree> window = engine->FoldWindow(num_threads, stats);
        if (window.ok()) PublishScanMetrics(*stats);
        return window;
      });
}

Result<MrCCResult> MrCC::Run(const Dataset& data) const {
  // No separate normalization precheck: the build pass classifies every
  // point anyway, so under the reject policy a bad point fails the run
  // from inside the scan (naming its row) instead of costing an extra
  // full pass up front.
  return Run(MemoryDataSource(data));
}

Result<Clustering> MrCC::Cluster(const Dataset& data) {
  Result<MrCCResult> result = Run(data);
  if (!result.ok()) return result.status();
  return std::move(result->clustering);
}

}  // namespace mrcc

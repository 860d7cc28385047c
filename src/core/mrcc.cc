#include "core/mrcc.h"

#include <algorithm>
#include <memory>
#include <mutex>
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

/// Publishes the tree-build scan's telemetry, the same for the batch and
/// the window feed.
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

/// Counts points [begin, end) of `source` into a sealed tree with
/// CountingTree::BuildPartitioned on `pool`'s workers: each worker scans
/// one contiguous slice through a read-ahead scanner and IngestPoint,
/// tallying into tallies[worker] and timing its scan into
/// scan_seconds[worker] (both sized to the pool). Honors the
/// `tree.build.alloc` failpoint, and `tree.merge.alloc` for the shared
/// record buffers of a multi-worker build.
Result<CountingTree> BuildTreeOnPool(const DataSource& source, size_t begin,
                                     size_t end, const MrCCParams& params,
                                     size_t chunk_points, ThreadPool& pool,
                                     std::vector<ScanTally>* tallies,
                                     std::vector<double>* scan_seconds) {
  // tree.build.alloc stands in for the tree's allocations failing under
  // memory pressure; tree.merge.alloc for the buffers the workers share.
  MRCC_RETURN_IF_ERROR(fp::Maybe("tree.build.alloc"));
  if (pool.num_threads() > 1) {
    MRCC_RETURN_IF_ERROR(fp::Maybe("tree.merge.alloc"));
  }
  const size_t num_dims = source.NumDims();
  const BadPointPolicy policy = params.bad_point_policy;
  return CountingTree::BuildPartitioned(
      num_dims, params.num_resolutions, end - begin, pool,
      [&](int worker, size_t first_point, size_t last_point,
          CountingTree::SliceRun& run) -> Status {
        MRCC_TRACE_SPAN_N("tree.build.shard",
                          static_cast<int64_t>(last_point - first_point));
        Timer timer;
        ScanTally& tally = (*tallies)[static_cast<size_t>(worker)];
        std::vector<double> scratch;
        // Chunks arrive in order and cover the slice exactly once, so the
        // tree is bit-identical to a point-at-a-time scan at every chunk
        // size. The scanner keeps up to read_ahead_chunks chunks in
        // flight behind the inserts; depth 0 is the plain synchronous
        // scan.
        const ReadAheadScanner scanner(source, params.read_ahead_chunks);
        const Status scanned = scanner.ScanChunks(
            begin + first_point, begin + last_point, chunk_points,
            [&](size_t first, std::span<const double> values) -> Status {
              const size_t count = values.size() / num_dims;
              for (size_t j = 0; j < count; ++j) {
                std::span<const double> point =
                    values.subspan(j * num_dims, num_dims);
                const PointAction action =
                    IngestPoint(&point, policy, &scratch);
                if (action == PointAction::kReject) {
                  return BadPointError(first + j, source.Name());
                }
                if (action == PointAction::kSkip) {
                  ++tally.points_skipped;
                  continue;
                }
                if (action == PointAction::kClamp) ++tally.points_clamped;
                MRCC_RETURN_IF_ERROR(run.Insert(point));
              }
              return Status::OK();
            },
            &tally.prefetch);
        (*scan_seconds)[static_cast<size_t>(worker)] += timer.ElapsedSeconds();
        return scanned;
      });
}

}  // namespace

Result<CountingTree> BuildTree(const DataSource& source,
                               const MrCCParams& params, int num_threads,
                               size_t chunk_points, MrCCStats* stats) {
  const size_t n = source.NumPoints();
  const size_t num_dims = source.NumDims();
  const int want_workers = std::max(
      1, std::min<int>(num_threads,
                       static_cast<int>(n / kMinPointsPerWorker)));
  stats->tree_merge_seconds = 0.0;

  if (n == 0) {
    stats->tree_build_threads = 1;
    return CountingTree::Empty(num_dims, params.num_resolutions);
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

  // Each worker's scan counters and scan seconds; reduced in slice order
  // below so the totals are deterministic like everything else.
  std::vector<ScanTally> tallies(static_cast<size_t>(workers));
  std::vector<double> scan_seconds(static_cast<size_t>(workers), 0.0);
  Result<CountingTree> tree = BuildTreeOnPool(
      source, 0, n, params, chunk_points, pool, &tallies, &scan_seconds);
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
  PublishScanMetrics(*stats);
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

void PublishMergeMetrics(const MergeTreeStats& stats) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("tree.merge.conflict_cells").Add(
      static_cast<int64_t>(stats.cells_merged));
  metrics.counter("tree.merge.cells_created").Add(
      static_cast<int64_t>(stats.cells_created));
}

Result<CountingTree> BuildTreeOverRange(const DataSource& source,
                                        size_t begin, size_t end,
                                        const MrCCParams& params,
                                        size_t chunk_points,
                                        ScanTally* tally) {
  ThreadPool serial(1);
  std::vector<ScanTally> tallies(1);
  std::vector<double> scan_seconds(1, 0.0);
  Result<CountingTree> tree = BuildTreeOnPool(
      source, begin, end, params, chunk_points, serial, &tallies,
      &scan_seconds);
  tally->points_skipped += tallies[0].points_skipped;
  tally->points_clamped += tallies[0].points_clamped;
  tally->prefetch += tallies[0].prefetch;
  return tree;
}

Status ClusterTree(CountingTree& tree, const MrCCParams& params,
                   int num_threads, const DataSource* label_source,
                   size_t chunk_points, BudgetTracker& tracker,
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
  Timer phase;
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
  stats.beta_search_seconds = phase.ElapsedSeconds();

  // Merge β-clusters (geometry only), then label every point in a second
  // scan of the source, parallel over point slices.
  phase.Reset();
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
                             params.bad_point_policy, chunk_points,
                             params.read_ahead_chunks, &label_prefetch);
      }
      if (!labels.ok()) return labels.status();
      result->clustering.labels = std::move(*labels);
      stats.prefetch_stalls += label_prefetch.stalls;
      stats.prefetch_queue_full_waits += label_prefetch.queue_full_waits;
    }
  }
  stats.cluster_build_seconds = phase.ElapsedSeconds();
  return Status::OK();
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
  // The pipeline's single parameter gate (see MrCCParams::Validate).
  MRCC_RETURN_IF_ERROR(params_.Validate(source.NumDims()));
  if (params_.window.enabled()) return RunWindowed(source);
  const int num_threads = ResolveThreadCount(params_.num_threads);

  MRCC_TRACE_SPAN_N("mrcc.run", static_cast<int64_t>(source.NumPoints()));

  MrCCResult result;
  result.stats.num_threads = num_threads;
  Timer total;
  BudgetTracker tracker(params_.budget);

  // Phase 1: single-scan Counting-tree construction, sliced by points and
  // partitioned by key space. Workers consume the source in bounded
  // chunks, so raw-point memory stays at workers × chunk regardless of
  // dataset size (DESIGN.md §14).
  const size_t chunk_points =
      ChunkPointsFor(params_, source.NumDims(), num_threads);
  result.stats.chunk_points = chunk_points;
  result.stats.read_ahead_chunks = params_.read_ahead_chunks;
  Timer phase;
  Result<CountingTree> tree(Status::Internal("tree build not run"));
  {
    MRCC_TRACE_SPAN("tree.build");
    tree = BuildTree(source, params_, num_threads, chunk_points,
                     &result.stats);
  }
  if (!tree.ok()) return tree.status();
  result.stats.tree_build_seconds = phase.ElapsedSeconds();

  // Phases 2-3: β-search, β-cluster merge and the labeling scan.
  MRCC_RETURN_IF_ERROR(ClusterTree(*tree, params_, num_threads, &source,
                                   chunk_points, tracker, &result));
  result.stats.total_seconds = total.ElapsedSeconds();
  // Allocator high-water mark since the last ResetPeak() — with the
  // bench harness's per-run reset this is the run's peak ("arena
  // high-water"); standalone it is a process-lifetime bound.
  MetricsRegistry::Global().gauge("memory.high_water_bytes").SetMax(
      MemoryTracker::PeakBytes());
  return result;
}

Result<MrCCResult> MrCC::RunWindowed(const DataSource& source) const {
  const size_t n = source.NumPoints();
  Timer total;
  Result<StreamingMrCC> engine =
      StreamingMrCC::Create(params_, source.NumDims());
  if (!engine.ok()) return engine.status();

  // Feed the whole source through the incremental engine in bounded
  // chunks (the feed is inherently serial: generation order is stream
  // order, which is exactly what the read-ahead scanner preserves — the
  // reader thread overlaps the next chunk's I/O with PushChunk), then
  // snapshot and label every point against the trailing window's
  // clusters.
  const size_t chunk_points = ChunkPointsFor(params_, source.NumDims(), 1);
  PrefetchStats prefetch;
  const ReadAheadScanner scanner(source, params_.read_ahead_chunks);
  MRCC_RETURN_IF_ERROR(scanner.ScanChunks(
      0, n, chunk_points,
      [&](size_t, std::span<const double> values) {
        return engine->PushChunk(values);
      },
      &prefetch));
  Result<MrCCResult> result = engine->Snapshot(source);
  if (!result.ok()) return result.status();
  result->stats.chunks_scanned = prefetch.chunks;
  result->stats.chunk_points = chunk_points;
  result->stats.read_ahead_chunks = params_.read_ahead_chunks;
  // The snapshot's labeling scan already counted its own prefetch stats.
  result->stats.prefetch_stalls += prefetch.stalls;
  result->stats.prefetch_queue_full_waits += prefetch.queue_full_waits;
  result->stats.resident_point_bound =
      std::min<size_t>(BuffersPerScan(params_) * chunk_points, n);
  PublishScanMetrics(result->stats);
  result->stats.total_seconds = total.ElapsedSeconds();
  MetricsRegistry::Global().gauge("memory.high_water_bytes").SetMax(
      MemoryTracker::PeakBytes());
  return result;
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

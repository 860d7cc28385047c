#include "core/streaming_mrcc.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/tree_io.h"
#include "data/sanitize.h"

namespace mrcc {

Result<StreamingMrCC> StreamingMrCC::Create(const MrCCParams& params,
                                            size_t num_dims) {
  MRCC_RETURN_IF_ERROR(params.Validate(num_dims));
  StreamingMrCC engine(params, num_dims);
  Result<CountingTree> tree = engine.EmptyTree();
  if (!tree.ok()) return tree.status();
  engine.current_.emplace(std::move(*tree));
  return engine;
}

StreamingMrCC::StreamingMrCC(const MrCCParams& params, size_t num_dims)
    : params_(params), num_dims_(num_dims) {
  generation_points_ =
      params_.window.enabled()
          ? std::max<size_t>(1, params_.window.points /
                                    params_.window.generations)
          : std::numeric_limits<size_t>::max();
}

Result<CountingTree> StreamingMrCC::EmptyTree() const {
  CountingTree::Builder builder(num_dims_, params_.num_resolutions);
  MRCC_RETURN_IF_ERROR(builder.status());
  return std::move(builder).Finish();
}

Status StreamingMrCC::Push(std::span<const double> point) {
  // Mirror the batch build scan's hygiene: a point is either counted and
  // labelable, or invisible to both passes.
  const PointAction action = ClassifyPoint(point, params_.bad_point_policy);
  if (action == PointAction::kReject) {
    return Status::InvalidArgument(
        "pushed point has a NaN/Inf/out-of-[0,1) value; normalize the "
        "data or pick a bad_point_policy");
  }
  if (action == PointAction::kSkip) {
    ++points_skipped_;
    return Status::OK();
  }
  if (action == PointAction::kClamp) {
    scratch_.assign(point.begin(), point.end());
    SanitizePoint(scratch_, params_.bad_point_policy);
    point = scratch_;
  }
  MRCC_RETURN_IF_ERROR(current_->Insert(point));
  ++points_seen_;
  ++retained_;
  ++current_points_;
  if (current_points_ >= generation_points_) {
    MRCC_RETURN_IF_ERROR(SealGeneration());
  }
  return Status::OK();
}

Status StreamingMrCC::PushChunk(std::span<const double> values) {
  if (values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "chunk of " + std::to_string(values.size()) +
        " values is not a whole number of " + std::to_string(num_dims_) +
        "-dimensional points");
  }
  for (size_t off = 0; off < values.size(); off += num_dims_) {
    MRCC_RETURN_IF_ERROR(Push(values.subspan(off, num_dims_)));
  }
  return Status::OK();
}

Status StreamingMrCC::SealGeneration() {
  current_->Seal();
  generations_.push_back(std::move(*current_));
  current_.reset();
  Result<CountingTree> fresh = EmptyTree();
  if (!fresh.ok()) return fresh.status();
  current_.emplace(std::move(*fresh));
  current_points_ = 0;

  // Count decay: whole generations leave when the retained total
  // overruns the window — the window is exact to one generation.
  while (retained_ > params_.window.points && !generations_.empty()) {
    const uint64_t evicted = generations_.front().total_points();
    generations_.pop_front();
    retained_ -= evicted;
    points_evicted_ += evicted;
    MetricsRegistry::Global().counter("tree.generations_evicted").Increment();
  }
  return Status::OK();
}

Result<MrCCResult> StreamingMrCC::Run(const DataSource* label_source) {
  MRCC_TRACE_SPAN_N("mrcc.run", static_cast<int64_t>(retained_));
  Timer total;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int num_threads = ResolveThreadCount(params_.num_threads);
  BudgetTracker tracker(params_.budget);

  MrCCResult result;
  result.stats.num_threads = num_threads;
  result.stats.points_skipped = points_skipped_;
  const auto note_degraded = [&result](std::string reason) {
    result.stats.degraded = true;
    result.stats.degradation_reasons.push_back(std::move(reason));
  };

  // Assemble the window tree: fold the generations oldest-to-newest,
  // the filling generation last — creation order equals stream order,
  // so the fold reproduces a batch build over the retained points
  // exactly. Every source is counted in with InsertTree and the result
  // sealed once: one pack of the window tree instead of one per
  // generation. Always fold into a scratch tree: the budget drops below
  // must never mutate the live generations.
  Timer phase;
  current_->Seal();  // Re-opens automatically on the next Push.
  Result<CountingTree> merged = EmptyTree();
  if (!merged.ok()) return merged.status();
  MergeTreeStats merge_stats;
  {
    MRCC_TRACE_SPAN_N("tree.merge",
                      static_cast<int64_t>(generations_.size() + 1));
    for (const CountingTree& generation : generations_) {
      Result<MergeTreeStats> fold = merged->InsertTree(generation);
      if (!fold.ok()) return fold.status();
      merge_stats += *fold;
    }
    Result<MergeTreeStats> fold = merged->InsertTree(*current_);
    if (!fold.ok()) return fold.status();
    merge_stats += *fold;
    merged->Seal();
  }
  result.stats.tree_merge = merge_stats;
  result.stats.tree_build_seconds = phase.ElapsedSeconds();
  result.stats.tree_merge_seconds = result.stats.tree_build_seconds;
  result.stats.tree_build_threads = 1;

  // Memory pressure: shed resolution on the snapshot tree (the live
  // generations keep theirs — the next snapshot starts from full H).
  while (tracker.MemoryPressure(merged->MemoryBytes())) {
    const size_t before = merged->MemoryBytes();
    if (!merged->DropDeepestLevel().ok()) {
      note_degraded("memory budget still exceeded at the minimum H = 3 (" +
                    std::to_string(merged->MemoryBytes()) +
                    " bytes); continuing");
      break;
    }
    metrics.counter("budget.depth_drops").Add(1);
    note_degraded("memory pressure: dropped the deepest resolution level "
                  "(H now " + std::to_string(merged->num_resolutions()) +
                  ", " + std::to_string(before) + " -> " +
                  std::to_string(merged->MemoryBytes()) + " bytes)");
  }
  result.stats.effective_resolutions = merged->num_resolutions();
  result.stats.tree_memory_bytes = merged->MemoryBytes();
  result.stats.cells_per_level.assign(
      static_cast<size_t>(merged->num_resolutions()), 0);
  for (int h = 1; h < merged->num_resolutions(); ++h) {
    result.stats.cells_per_level[static_cast<size_t>(h)] =
        merged->NumCellsAtLevel(h);
  }
  metrics.gauge("tree.memory_bytes").Set(
      static_cast<int64_t>(result.stats.tree_memory_bytes));

  const size_t label_points =
      label_source != nullptr ? label_source->NumPoints() : 0;
  if (tracker.DeadlineExceeded()) {
    note_degraded("wall deadline exceeded after the window fold (" +
                  std::to_string(tracker.ElapsedSeconds()) +
                  "s): returning an empty clustering, all points noise");
    result.clustering.labels.assign(label_points, kNoiseLabel);
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  }

  // β-search over the folded window, identical to the batch pipeline.
  phase.Reset();
  BetaFinderOptions finder_options;
  finder_options.alpha = params_.alpha;
  finder_options.full_mask = params_.full_mask;
  finder_options.num_threads = num_threads;
  result.stats.beta_search_threads = num_threads;
  merged->ResetUsedFlags();
  {
    MRCC_TRACE_SPAN("beta.search");
    Result<BetaSearchResult> search =
        RunBetaSearch(*merged, finder_options, &tracker);
    if (!search.ok()) return search.status();
    result.beta_clusters = std::move(search->betas);
    result.stats.beta_search = search->stats;
  }
  if (result.stats.beta_search.deadline_hit) {
    note_degraded(
        "wall deadline exceeded during the β-search: the β-clusters are "
        "a deterministic prefix of the full search");
  }
  result.stats.beta_search_seconds = phase.ElapsedSeconds();

  phase.Reset();
  {
    MRCC_TRACE_SPAN_N("cluster.merge_betas",
                      static_cast<int64_t>(result.beta_clusters.size()));
    result.clustering = MergeBetaClusters(result.beta_clusters, num_dims_,
                                          &result.beta_to_cluster);
  }
  if (label_source != nullptr) {
    result.stats.labeling_threads = num_threads;
    if (tracker.DeadlineExceeded()) {
      note_degraded("wall deadline exceeded before labeling: skipping the "
                    "labeling scan, all points labeled noise");
      result.clustering.labels.assign(label_points, kNoiseLabel);
    } else {
      Result<std::vector<int>> labels(Status::Internal("labeling not run"));
      {
        MRCC_TRACE_SPAN_N("cluster.label_points",
                          static_cast<int64_t>(label_points));
        labels = LabelPoints(result.beta_clusters, result.beta_to_cluster,
                             *label_source, num_threads,
                             params_.bad_point_policy, params_.chunk_points);
      }
      if (!labels.ok()) return labels.status();
      result.clustering.labels = std::move(*labels);
    }
  }
  result.stats.cluster_build_seconds = phase.ElapsedSeconds();
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mrcc

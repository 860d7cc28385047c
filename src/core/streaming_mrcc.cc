#include "core/streaming_mrcc.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "data/sanitize.h"

namespace mrcc {

Result<StreamingMrCC> StreamingMrCC::Create(const MrCCParams& params,
                                            size_t num_dims) {
  MRCC_RETURN_IF_ERROR(params.Validate(num_dims));
  StreamingMrCC engine(params, num_dims);
  Result<CountingTree> tree =
      CountingTree::Empty(num_dims, params.num_resolutions);
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

Status StreamingMrCC::Push(std::span<const double> point) {
  // The batch build scan's ingest step: a point is either counted and
  // labelable, or invisible to both passes.
  const PointAction action =
      IngestPoint(&point, params_.bad_point_policy, &scratch_);
  if (action == PointAction::kReject) {
    return BadPointError(points_seen_ + points_skipped_, "the pushed stream");
  }
  if (action == PointAction::kSkip) {
    ++points_skipped_;
    return Status::OK();
  }
  if (action == PointAction::kClamp) ++points_clamped_;
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
  // A generation stays a flushed key order: it is never laid out on its
  // own, only folded into the window at each snapshot.
  current_->Flush();
  generations_.push_back(std::move(*current_));
  current_.reset();
  Result<CountingTree> fresh =
      CountingTree::Empty(num_dims_, params_.num_resolutions);
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

Result<CountingTree> StreamingMrCC::FoldWindow(int num_threads,
                                               MrCCStats* stats) {
  // Fold the generations oldest to newest, the filling one (flushed, not
  // sealed) last — creation order equals stream order, so the fold
  // reproduces a batch build over the retained points exactly. One k-way
  // merge of the generations' key orders and one layout on the run's
  // threads. The fold reads the generations and writes a fresh tree: the
  // budget drops in the cluster tail must never mutate the live
  // generations (the next snapshot starts from full H).
  current_->Flush();
  std::vector<const CountingTree*> parts;
  for (const CountingTree& generation : generations_) {
    parts.push_back(&generation);
  }
  parts.push_back(&*current_);
  stats->points_skipped = points_skipped_;
  stats->points_clamped = points_clamped_;
  MRCC_TRACE_SPAN_N("tree.merge", static_cast<int64_t>(parts.size()));
  ThreadPool pool(num_threads);  // Joined once the window is laid out.
  stats->tree_build_threads = pool.num_threads();
  return CountingTree::Fold(parts, &pool, &stats->tree_merge);
}

Result<MrCCResult> StreamingMrCC::Run(const DataSource* label_source) {
  return RunPipeline(params_, num_dims_, retained_, label_source,
                     [this](int num_threads, size_t, MrCCStats* stats) {
                       return FoldWindow(num_threads, stats);
                     });
}

}  // namespace mrcc

// Incremental / sliding-window driver over the MrCC pipeline.
//
// The batch driver (MrCC::Run) rebuilds the Counting-tree from scratch
// for every dataset. A live feed needs the opposite: points arrive one
// chunk at a time, the tree keeps up incrementally, and clusters are
// re-derived on demand — without rescanning (or even retaining) the raw
// points. The tree makes this cheap: counts are additive, so appending a
// point is one more record in the tree's pending run, and
// CountingTree::Fold (core/counting_tree.h) — one k-way merge of the
// sub-trees' key orders, laid out once — makes a tree assembled from
// sub-trees bit-identical to one built from the concatenated stream.
//
// Two modes, selected by MrCCParams::window:
//   - Unwindowed (window.points == 0): every pushed point stays counted.
//     One live tree absorbs pushes via CountingTree::Insert.
//   - Sliding window: the stream is cut into generations of
//     window.points / window.generations points. A completed generation
//     is flushed, not sealed: it stays the key order its run produced
//     (each cell with its first stream position in the generation) and
//     is never laid out on its own. When retained points exceed the
//     window, the oldest generation is evicted — count decay at
//     generation granularity, O(1) per point amortized. (Per-cell count
//     halving was rejected: it cannot keep the child-sum-equals-parent
//     invariant exact; see DESIGN.md §14.)
//
// Snapshot() re-runs the β-search over the current window through the
// pipeline's run driver (RunPipeline, core/mrcc.h), with FoldWindow as
// its assembly step: it flushes the filling generation's run into that
// generation's key order, folds every generation oldest to newest, the
// filling one last, in one k-way merge read from where the generations
// lie, and lays the window out once on a pool of the run's threads — a
// tree equal, cell for cell, to a batch build over exactly the retained
// points — then the driver searches it. A windowed MrCC::Run feeds its
// source and then runs the same FoldWindow. No raw points are kept, so
// a plain Snapshot() returns empty labels; pass a DataSource holding the
// points to label them against the window's clusters.

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "core/counting_tree.h"
#include "core/mrcc.h"
#include "data/data_source.h"

namespace mrcc {

/// Incremental MrCC over a live point feed (see file comment).
/// Move-only. Not thread-safe: one feed, one owner.
class StreamingMrCC {
 public:
  /// Validates `params` (including the window) against `num_dims`.
  [[nodiscard]] static Result<StreamingMrCC> Create(const MrCCParams& params,
                                                    size_t num_dims);

  StreamingMrCC(StreamingMrCC&&) = default;
  StreamingMrCC& operator=(StreamingMrCC&&) = default;

  /// Feeds one point through the batch build scan's ingest step
  /// (IngestPoint, data/sanitize.h) under params.bad_point_policy:
  /// kReject fails naming the point's stream position, kSkip drops,
  /// kClamp clamps.
  [[nodiscard]] Status Push(std::span<const double> point);

  /// Feeds `values.size() / num_dims` points laid out row-major (the
  /// ScanChunks chunk shape).
  [[nodiscard]] Status PushChunk(std::span<const double> values);

  /// Points accepted over the feed's lifetime (skipped points excluded).
  uint64_t points_seen() const { return points_seen_; }

  /// Points currently counted in the window.
  uint64_t points_retained() const { return retained_; }

  /// Points evicted with their generations (0 when unwindowed).
  uint64_t points_evicted() const { return points_evicted_; }

  /// Points dropped by the bad-point policy (kSkip, and kClamp's
  /// non-finite points).
  uint64_t points_skipped() const { return points_skipped_; }

  /// Points clamped into [0,1) by the kClamp bad-point policy.
  uint64_t points_clamped() const { return points_clamped_; }

  /// Completed generations currently retained (excludes the one
  /// filling); each is held flushed, as a key order.
  size_t generations_sealed() const { return generations_.size(); }

  /// Re-runs the full β-cluster pipeline over the current window.
  /// result.clustering.labels is empty — the engine retains no raw
  /// points to label. The feed continues afterwards: snapshots are
  /// read-only with respect to the stream state.
  [[nodiscard]] Result<MrCCResult> Snapshot() { return Run(nullptr); }

  /// Same, then labels every point of `label_source` against the
  /// window's clusters (points that left the window get the label their
  /// position earns under the current clusters, like any other point).
  /// Its points go through IngestPoint under the window's
  /// bad_point_policy, so under kReject a bad row fails the snapshot.
  [[nodiscard]] Result<MrCCResult> Snapshot(const DataSource& label_source) {
    return Run(&label_source);
  }

  /// The window's assembly step, shared by Snapshot and a windowed
  /// MrCC::Run (after its feed): flushes the filling generation and folds
  /// every retained generation, oldest first, into a fresh sealed tree
  /// on a pool of `num_threads` threads (see file comment). Fills stats'
  /// tree_build_threads, tree_merge (the fold's counters) and the feed's
  /// skip/clamp counts. Emits the `tree.merge` span. The stream state is
  /// unchanged apart from the flush.
  [[nodiscard]] Result<CountingTree> FoldWindow(int num_threads,
                                                MrCCStats* stats);

 private:
  StreamingMrCC(const MrCCParams& params, size_t num_dims);

  /// Flushes the filling generation into the retained deque and evicts
  /// generations that fell out of the window.
  [[nodiscard]] Status SealGeneration();

  /// Snapshot's body: RunPipeline with FoldWindow as the assembly step.
  [[nodiscard]] Result<MrCCResult> Run(const DataSource* label_source);

  MrCCParams params_;
  size_t num_dims_ = 0;

  /// Points per generation (SIZE_MAX when unwindowed: never seal).
  size_t generation_points_ = 0;

  /// The generation currently absorbing pushes (engaged after Create).
  std::optional<CountingTree> current_;
  uint64_t current_points_ = 0;

  /// Completed generations, oldest first, each flushed (a key order).
  std::deque<CountingTree> generations_;

  uint64_t points_seen_ = 0;
  uint64_t retained_ = 0;
  uint64_t points_evicted_ = 0;
  uint64_t points_skipped_ = 0;
  uint64_t points_clamped_ = 0;

  std::vector<double> scratch_;  // Ingest buffer, reused across pushes.
};

}  // namespace mrcc

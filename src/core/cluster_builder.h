// Correlation-cluster construction (paper §III-C, Algorithm 3).
//
// β-clusters whose hyper-boxes share space in the full d-dimensional cube
// are merged (transitively) into one correlation cluster; a correlation
// cluster's relevant axes are the union of its β-clusters' relevant axes.
// Points covered by a cluster's boxes take its label; all others are noise.
//
// The two halves are separate: MergeBetaClusters is pure geometry over
// the β-boxes, LabelPoints streams any DataSource through the boxes.
// Per-point labels are independent, so labeling parallelizes over
// contiguous point slices with bit-identical output at any thread count.

#pragma once

#include <vector>

#include "core/beta_cluster_finder.h"
#include "data/data_source.h"
#include "data/dataset.h"
#include "data/prefetch.h"
#include "data/sanitize.h"

namespace mrcc {

/// Algorithm 3 lines 1-8: merges β-clusters into correlation clusters by
/// the transitive closure of the shares-space relation and unions their
/// relevant axes. Returns a Clustering with `clusters` filled and `labels`
/// empty. When `beta_to_cluster` is non-null it receives, per β-cluster,
/// the index of the correlation cluster it was assigned to.
Clustering MergeBetaClusters(const std::vector<BetaCluster>& betas,
                             size_t num_dims,
                             std::vector<int>* beta_to_cluster = nullptr);

/// Labels every point of `source` by box membership: the first β-box (in
/// discovery order) containing the point determines its cluster via
/// `beta_to_cluster`; points outside every box get kNoiseLabel. Distinct
/// correlation clusters never share space, so the label is unique.
/// `num_threads` (0 = hardware concurrency) splits the points into
/// contiguous slices, one ScanChunks call per worker.
///
/// `policy` must match the tree-build pass: every point goes through
/// IngestPoint, so points the build skipped are labeled noise, points it
/// clamped are looked up at their clamped coordinates, and under kReject
/// the first bad point fails the scan with BadPointError — the source
/// need not be the one the build scanned (StreamingMrCC::Snapshot's
/// label source), so a NaN row is never silently labeled.
///
/// The scan consumes the source in bounded chunks of `chunk_points`
/// points (0 = kDefaultChunkPoints, data/data_source.h); the chunk size
/// bounds raw-point memory and never changes the labels.
/// `read_ahead_chunks` pipelines each slice's scan through a
/// ReadAheadScanner of that depth (0 = the synchronous path; never
/// changes the labels either); `prefetch`, when non-null, accumulates the
/// scans' counters in slice order.
[[nodiscard]] Result<std::vector<int>> LabelPoints(
    const std::vector<BetaCluster>& betas,
    const std::vector<int>& beta_to_cluster, const DataSource& source,
    int num_threads = 1, BadPointPolicy policy = BadPointPolicy::kReject,
    size_t chunk_points = 0, size_t read_ahead_chunks = 0,
    PrefetchStats* prefetch = nullptr);

}  // namespace mrcc


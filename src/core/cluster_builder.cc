#include "core/cluster_builder.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"
#include "common/union_find.h"
#include "data/ingest_scan.h"

namespace mrcc {

Clustering MergeBetaClusters(const std::vector<BetaCluster>& betas,
                             size_t num_dims,
                             std::vector<int>* beta_to_cluster) {
  const size_t bk = betas.size();

  // Algorithm 3, lines 1-5: pairwise shared-space check, transitive merge.
  UnionFind uf(bk);
  for (size_t a = 0; a < bk; ++a) {
    for (size_t b = a + 1; b < bk; ++b) {
      if (betas[a].SharesSpaceWith(betas[b])) uf.Union(a, b);
    }
  }
  const std::vector<size_t> dense = bk > 0 ? uf.DenseIds()
                                           : std::vector<size_t>{};
  const size_t gk = uf.NumSets();

  Clustering out;
  out.clusters.resize(gk);
  for (ClusterInfo& info : out.clusters) {
    info.relevant_axes.assign(num_dims, false);
  }

  // Lines 6-8: a cluster's relevant axes are the union over its β-clusters.
  for (size_t b = 0; b < bk; ++b) {
    MRCC_DCHECK_LT(dense[b], gk);
    MRCC_DCHECK_EQ(betas[b].relevant.size(), num_dims);
    ClusterInfo& info = out.clusters[dense[b]];
    for (size_t j = 0; j < num_dims; ++j) {
      if (betas[b].relevant[j]) info.relevant_axes[j] = true;
    }
  }

  if (beta_to_cluster != nullptr) {
    beta_to_cluster->resize(bk);
    for (size_t b = 0; b < bk; ++b) {
      (*beta_to_cluster)[b] = static_cast<int>(dense[b]);
    }
  }
  return out;
}

Result<std::vector<int>> LabelPoints(const std::vector<BetaCluster>& betas,
                                     const std::vector<int>& beta_to_cluster,
                                     const DataSource& source,
                                     int num_threads, BadPointPolicy policy,
                                     size_t chunk_points,
                                     size_t read_ahead_chunks,
                                     PrefetchStats* prefetch) {
  // Each contained point is labeled beta_to_cluster[b] — a short map
  // silently mislabels, a long one reads out of the betas' range.
  MRCC_CHECK_EQ(beta_to_cluster.size(), betas.size());
  const size_t n = source.NumPoints();
  if (chunk_points == 0) chunk_points = kDefaultChunkPoints;
  std::vector<int> labels(n, kNoiseLabel);
  // Every worker labels one contiguous slice through its own scan;
  // writes are disjoint, so the result does not depend on the thread
  // count. Cap the workers so each slice amortizes its scan's setup (for
  // a file source: an open) over a reasonable number of points.
  constexpr size_t kMinPointsPerSlice = 1024;
  ThreadPool pool(std::min<int>(
      ResolveThreadCount(num_threads),
      static_cast<int>(std::max<size_t>(1, n / kMinPointsPerSlice))));

  // One status and one tally per slice, reduced in slice order like
  // every other stage: the error returned is the first slice's, not the
  // first to fail in time.
  const size_t slices = static_cast<size_t>(pool.num_threads());
  std::vector<Status> slice_status(slices);
  std::vector<ScanTally> slice_tally(slices);
  pool.ParallelFor(n, [&](int t, size_t begin, size_t end) {
    // The tree-build pass's ingest step: a skipped point was never
    // counted, so it stays noise; a clamped point was counted at its
    // clamped coordinates, so it is looked up there; a rejected one fails
    // the scan, which may read a source the build never saw (a window's
    // label source).
    slice_status[static_cast<size_t>(t)] = IngestScan(
        source, begin, end, chunk_points, read_ahead_chunks, policy,
        &slice_tally[static_cast<size_t>(t)],
        [&](size_t row, std::span<const double> point) {
          for (size_t b = 0; b < betas.size(); ++b) {
            if (betas[b].Contains(point)) {
              labels[row] = beta_to_cluster[b];
              break;
            }
          }
        });
  });
  for (const Status& status : slice_status) MRCC_RETURN_IF_ERROR(status);
  if (prefetch != nullptr) {
    for (const ScanTally& tally : slice_tally) *prefetch += tally.prefetch;
  }
  return labels;
}

}  // namespace mrcc

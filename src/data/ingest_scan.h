// The ingesting slice scan: the one loop every data pass of the pipeline
// runs over a contiguous point range — the tree build's workers (one
// slice each, core/mrcc.h BuildTree) and the labeling scan's (LabelPoints,
// core/cluster_builder.h).
//
// It reads the range in chunks through a ReadAheadScanner, runs every
// point through the ingest step IngestPoint under the run's bad-point
// policy, fails a kReject point with BadPointError (naming its row),
// drops and counts a kSkip point, counts a kClamp point, and hands every
// kept point to the caller's per-point body. A template, so the body
// stays inline in the per-point loop.

#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "data/data_source.h"
#include "data/prefetch.h"
#include "data/sanitize.h"

namespace mrcc {

/// Counters of one ingesting scan. Callers that run several scans sum
/// them in slice order, so the totals are deterministic.
struct ScanTally {
  /// Points dropped / clamped by the bad-point policy.
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;

  /// The read-ahead scanner's counters (prefetch.chunks: chunks the scan
  /// delivered).
  PrefetchStats prefetch;
};

/// Streams points [begin, end) of `source` in `chunk_points`-point chunks
/// through a ReadAheadScanner of `read_ahead_chunks` depth (0 = the
/// synchronous scan) and each point through IngestPoint under `policy`
/// (see file comment). Every kept point goes to `keep(row, point)`; when
/// it returns a Status, the first non-OK one ends the scan and is
/// returned (a body that cannot fail returns void and pays no check).
/// Points arrive in row order whatever the chunk size and depth, so any
/// per-point fold is the same at every setting. `tally` accumulates (+=)
/// the scan's counters.
template <typename KeepFn>
[[nodiscard]] Status IngestScan(const DataSource& source, size_t begin,
                                size_t end, size_t chunk_points,
                                size_t read_ahead_chunks,
                                BadPointPolicy policy, ScanTally* tally,
                                KeepFn&& keep) {
  const size_t num_dims = source.NumDims();
  std::vector<double> scratch;
  const ReadAheadScanner scanner(source, read_ahead_chunks);
  return scanner.ScanChunks(
      begin, end, chunk_points,
      [&](size_t first, std::span<const double> values) -> Status {
        const size_t count = values.size() / num_dims;
        for (size_t j = 0; j < count; ++j) {
          std::span<const double> point =
              values.subspan(j * num_dims, num_dims);
          const PointAction action = IngestPoint(&point, policy, &scratch);
          if (action == PointAction::kReject) {
            return BadPointError(first + j, source.Name());
          }
          if (action == PointAction::kSkip) {
            ++tally->points_skipped;
            continue;
          }
          if (action == PointAction::kClamp) ++tally->points_clamped;
          if constexpr (std::is_void_v<decltype(keep(first + j, point))>) {
            keep(first + j, point);
          } else {
            MRCC_RETURN_IF_ERROR(keep(first + j, point));
          }
        }
        return Status::OK();
      },
      &tally->prefetch);
}

}  // namespace mrcc

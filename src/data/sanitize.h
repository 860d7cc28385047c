// Input sanitization policy for dirty points.
//
// The paper assumes points normalized to [0,1)^d (Definition 1); real
// very-large datasets carry NaNs, infinities and out-of-range values. The
// policy decides what the pipeline does when it meets one — uniformly in
// both data passes (tree build and labeling), so a point is either
// counted and labelable, or invisible to both:
//
//   kReject — the run fails with InvalidArgument naming the first bad
//             point (the historical contract; right for pipelines where
//             a bad value means the upstream normalizer is broken).
//   kClamp  — finite out-of-range values are clamped into [0,1) and the
//             point is kept; non-finite values cannot be placed anywhere
//             meaningful, so NaN/Inf points are skipped and counted.
//   kSkip   — any bad point is dropped and counted; the run completes on
//             the clean subset.
//
// Skipped/clamped totals surface in MrCCStats (points_skipped,
// points_clamped) and the metrics registry (input.points_skipped,
// input.points_clamped) so silent data loss is impossible.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace mrcc {

/// What MrCC does with a NaN/Inf/out-of-[0,1) input point.
enum class BadPointPolicy {
  kReject = 0,
  kClamp,
  kSkip,
};

/// "reject" / "clamp" / "skip".
const char* BadPointPolicyName(BadPointPolicy policy);

/// What IngestPoint decided for one point.
enum class PointAction {
  kKeep = 0,  // Already clean; untouched.
  kClamp,     // Out-of-range values clamped into scratch; point kept.
  kSkip,      // Point must be dropped (and counted).
  kReject,    // Point must fail the run.
};

/// The per-point ingest step every data pass runs (the range build,
/// StreamingMrCC::Push, the labeling scan), so the passes cannot drift
/// apart. Applies the `source.read.corrupt` failpoint (a fired hit
/// poisons the point's first coordinate with NaN, the way a damaged row
/// arrives from any backend), then `policy`. On kKeep `*point` is
/// unchanged; on kClamp it views the clamped copy in `*scratch` (valid
/// until the next call with the same scratch). kSkip means drop the
/// point, kReject means fail the pass with BadPointError.
[[nodiscard]] PointAction IngestPoint(std::span<const double>* point,
                                      BadPointPolicy policy,
                                      std::vector<double>* scratch);

/// The InvalidArgument a pass fails with on a kReject point: names row
/// `row` of `source_name`.
[[nodiscard]] Status BadPointError(uint64_t row,
                                   const std::string& source_name);

}  // namespace mrcc

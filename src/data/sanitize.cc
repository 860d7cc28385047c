#include "data/sanitize.h"

#include <cmath>
#include <limits>

#include "common/failpoint.h"

namespace mrcc {
namespace {

/// Largest double strictly below 1.0 — the upper clamp target honoring
/// the half-open cube.
const double kBelowOne = std::nextafter(1.0, 0.0);

/// The policy's decision for `point`, which it does not change (kClamp
/// means "needs clamping").
PointAction ClassifyPoint(std::span<const double> point,
                          BadPointPolicy policy) {
  bool needs_clamp = false;
  for (double v : point) {
    if (v >= 0.0 && v < 1.0) continue;
    switch (policy) {
      case BadPointPolicy::kReject:
        return PointAction::kReject;
      case BadPointPolicy::kSkip:
        return PointAction::kSkip;
      case BadPointPolicy::kClamp:
        // Non-finite values have no meaningful clamp target; the whole
        // point is dropped (see header).
        if (!std::isfinite(v)) return PointAction::kSkip;
        needs_clamp = true;
        break;
    }
  }
  return needs_clamp ? PointAction::kClamp : PointAction::kKeep;
}

/// Clamps a point ClassifyPoint found kClamp into the half-open cube.
void SanitizePoint(std::span<double> point) {
  for (double& v : point) {
    if (v < 0.0) v = 0.0;
    if (v >= 1.0) v = kBelowOne;
  }
}

}  // namespace

const char* BadPointPolicyName(BadPointPolicy policy) {
  switch (policy) {
    case BadPointPolicy::kReject:
      return "reject";
    case BadPointPolicy::kClamp:
      return "clamp";
    case BadPointPolicy::kSkip:
      return "skip";
  }
  return "unknown";
}

PointAction IngestPoint(std::span<const double>* point, BadPointPolicy policy,
                        std::vector<double>* scratch) {
  if (!point->empty() && fp::MaybeTrue("source.read.corrupt")) {
    scratch->assign(point->begin(), point->end());
    (*scratch)[0] = std::numeric_limits<double>::quiet_NaN();
    *point = *scratch;
  }
  const PointAction action = ClassifyPoint(*point, policy);
  if (action == PointAction::kClamp) {
    if (point->data() != scratch->data()) {
      scratch->assign(point->begin(), point->end());
    }
    SanitizePoint(*scratch);
    *point = *scratch;
  }
  return action;
}

Status BadPointError(uint64_t row, const std::string& source_name) {
  return Status::InvalidArgument(
      "point " + std::to_string(row) + " of " + source_name +
      " has a NaN/Inf/out-of-[0,1) value; normalize the data or pick a "
      "bad_point_policy");
}

}  // namespace mrcc

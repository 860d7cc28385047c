// Folds one traced pass of the benchmark (a Chrome trace exported by
// common/trace.h) into per-span totals and a per-layer attribution of the
// pass's wall time.
//
// Spans nest per thread by time containment. A span's self time is its
// duration minus the durations of its direct children on the same
// thread. Every span name belongs to one layer of the pipeline, or to
// "control" — the spans that only sequence the layers (the benchmark's own
// iteration span, MrCC::Run's `mrcc.run`). On the thread that owns the
// root span, a top-level layer span is a layer span whose ancestors are
// all control spans; the share of the root's wall time those spans cover
// is the trace's layer coverage.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace mrcc::bench {

/// Totals of every span sharing one name, over all threads.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double max_s = 0.0;
};

struct TraceFold {
  std::map<std::string, SpanTotals> spans;

  /// Duration of the root span.
  double wall_s = 0.0;

  /// Per layer: time in top-level spans of that layer on the root's
  /// thread, inside the root span.
  std::map<std::string, double> top_level_s;

  /// Sum of top_level_s divided by wall_s.
  double coverage = 0.0;

  /// Total of the spans named `name` (0 when absent).
  double Total(const std::string& name) const;

  /// Longest single span named `name` (0 when absent).
  double Max(const std::string& name) const;
};

/// The layer a span name belongs to: "data", "tree", "beta", "cluster",
/// "stream", "dist", or "control". Unknown names are "control", so a span
/// nobody classified never counts as covered.
std::string LayerOf(const std::string& span_name);

/// Parses `chrome_json` and folds it. Exactly one span must be named
/// `root`; it defines the wall time and the thread coverage is measured on.
[[nodiscard]] Result<TraceFold> FoldTrace(const std::string& chrome_json,
                                          const std::string& root);

}  // namespace mrcc::bench

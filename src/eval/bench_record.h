// Machine-readable benchmark output: the BenchRecord schema.
//
// Every bench binary emits one BenchRecord (via the shared --json_out=
// flag in bench/bench_common.h): the bench configuration, one entry per
// (method, dataset) measurement, end-of-run totals (wall time, peak RSS)
// and a flat snapshot of the pipeline metrics registry. The record is the
// unit of performance history: CI uploads one per run.
//
// Schema stability rules (DESIGN.md §10): the schema is versioned by
// `schema_version`. Adding a field is backward compatible and does NOT
// bump the version (readers must ignore unknown keys); removing or
// renaming a field, or changing a field's meaning or unit, bumps the
// version. FromJson accepts records of the current version only, so a
// reader is never silently wrong about what a number means.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/measurement.h"

namespace mrcc {

/// One (method, dataset) measurement inside a BenchRecord — the JSON twin
/// of RunMeasurement.
struct BenchEntry {
  std::string method;
  std::string dataset;
  bool completed = false;
  std::string error;
  double seconds = 0.0;
  int64_t peak_heap_bytes = 0;
  double quality = 0.0;
  double subspace_quality = 0.0;
  uint64_t clusters_found = 0;

  /// Data backend the run scanned: "memory" (default), "chunked"
  /// (bounded-buffer preads) or "mmap". Results are bit-identical across
  /// backends; this axis exists to compare their time and memory.
  std::string source = "memory";

  /// Read-ahead depth (chunk buffers) the run's pipelined scans used;
  /// 0 = synchronous scans. Like `source`, a time/memory axis only —
  /// results are bit-identical at every depth.
  int64_t read_ahead = 0;

  bool operator==(const BenchEntry&) const = default;
};

/// Complete machine-readable output of one bench binary run.
struct BenchRecord {
  static constexpr int kSchemaVersion = 1;

  int schema_version = kSchemaVersion;
  std::string bench;  // Bench name, e.g. "scale_points".
  double scale = 0.0;
  double time_budget_seconds = 0.0;
  int num_threads_available = 0;  // Hardware concurrency of the host.
  double wall_seconds = 0.0;      // Whole-binary wall time.
  int64_t peak_rss_bytes = 0;     // Kernel VmHWM at the end of the run.
  std::vector<BenchEntry> entries;
  /// Flattened MetricsRegistry snapshot (see MetricsSnapshot::Flatten).
  std::map<std::string, int64_t> metrics;

  bool operator==(const BenchRecord&) const = default;

  std::string ToJson() const;

  /// Parses a record serialized by ToJson(). Unknown keys are ignored
  /// (forward compatibility); a missing or different schema_version is an
  /// InvalidArgument error.
  [[nodiscard]] static Result<BenchRecord> FromJson(const std::string& json);

  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]] static Result<BenchRecord> Load(const std::string& path);
};

/// Converts a harness measurement into a record entry.
BenchEntry ToBenchEntry(const RunMeasurement& m);

}  // namespace mrcc

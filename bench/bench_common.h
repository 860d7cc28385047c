// Shared harness for the figure-reproduction benches.
//
// Every bench binary regenerates one panel group of the paper's evaluation
// (Fig. 4 / Fig. 5): it builds the corresponding dataset family, runs the
// configured methods, and prints the same rows the paper plots — Quality,
// Subspaces Quality, memory (KB) and wall-clock seconds — plus machine-
// readable CSV and (via --json_out=) a schema-versioned BenchRecord JSON.
//
// Environment knobs:
//   MRCC_BENCH_SCALE    point-count multiplier (default 0.125). The shape
//                       of every curve is preserved; absolute values move.
//   MRCC_BENCH_FULL=1   shorthand for MRCC_BENCH_SCALE=1 (paper scale).
//   MRCC_BENCH_BUDGET   per-run time budget in seconds (default 120).
//                       Methods exceeding it are reported as timed out,
//                       mirroring the paper's 3h/1-week cutoffs.
//   MRCC_BENCH_METHODS  comma-separated subset of methods to run.
//   MRCC_BENCH_CSV      directory to also write <bench>.csv into.
//   MRCC_BENCH_DATA_DIR directory to cache generated datasets in. Files
//                       are keyed on every generator parameter, so a
//                       config change regenerates and a repeat run (or
//                       another bench sharing the config) loads the
//                       cached file instead of regenerating.
//   MRCC_BENCH_SOURCE   data backend axis where a bench supports it
//                       (bench_scale_points): memory | chunked | mmap;
//                       unset = sweep all three.
//   MRCC_BENCH_READ_AHEAD
//                       read-ahead depths (comma-separated) to sweep on
//                       the backend-comparison axis; unset = "0,2"
//                       (synchronous vs. double buffering).
//
// Command-line flags (override the environment; shared by every bench):
//   --json_out=PATH     write the run's BenchRecord JSON to PATH.
//   --trace_out=PATH    enable stage tracing and write a Chrome trace
//                       (chrome://tracing / ui.perfetto.dev) to PATH.
//   --scale=X --budget=S --methods=A,B --csv_dir=DIR --data_dir=DIR
//   --source=S --read_ahead=D0,D1
//                       flag twins of the environment knobs above.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/clusterer.h"
#include "baselines/tuning_grid.h"
#include "common/memory.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "eval/bench_record.h"
#include "eval/measurement.h"

namespace mrcc::bench {

struct BenchOptions {
  double scale = 0.125;
  double time_budget_seconds = 120.0;
  std::vector<std::string> methods = PaperMethodNames();
  std::string csv_dir;
  std::string data_dir;   // Dataset cache directory; empty = no caching.
  std::string source;     // Data backend axis; empty = bench default.
  std::string json_out;   // BenchRecord JSON path; empty = don't write.
  std::string trace_out;  // Chrome trace path; empty = tracing stays off.

  // Read-ahead depths the backend-comparison axis sweeps (chunk buffers;
  // 0 = synchronous scans). The default contrasts today's synchronous
  // path with double buffering.
  std::vector<size_t> read_ahead = {0, 2};
};

inline std::vector<std::string> SplitCsvList(const std::string& raw) {
  std::vector<std::string> out;
  std::string token;
  for (char c : raw) {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) out.push_back(token);
  return out;
}

/// "0,2,8" -> {0, 2, 8}. A bench axis misconfiguration should be loud,
/// not silent, so non-numeric tokens abort.
inline std::vector<size_t> ParseReadAheadList(const std::string& raw) {
  std::vector<size_t> depths;
  for (const std::string& token : SplitCsvList(raw)) {
    char* rest = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &rest, 10);
    if (rest == token.c_str() || *rest != '\0') {
      std::fprintf(stderr, "read_ahead: '%s' is not a depth\n",
                   token.c_str());
      std::exit(2);
    }
    depths.push_back(static_cast<size_t>(v));
  }
  if (depths.empty()) {
    std::fprintf(stderr, "read_ahead: empty depth list\n");
    std::exit(2);
  }
  return depths;
}

inline BenchOptions OptionsFromEnv() {
  BenchOptions options;
  if (const char* full = std::getenv("MRCC_BENCH_FULL");
      full != nullptr && full[0] == '1') {
    options.scale = 1.0;
  }
  if (const char* scale = std::getenv("MRCC_BENCH_SCALE")) {
    options.scale = std::strtod(scale, nullptr);
  }
  if (const char* budget = std::getenv("MRCC_BENCH_BUDGET")) {
    options.time_budget_seconds = std::strtod(budget, nullptr);
  }
  if (const char* methods = std::getenv("MRCC_BENCH_METHODS")) {
    options.methods = SplitCsvList(methods);
  }
  if (const char* dir = std::getenv("MRCC_BENCH_CSV")) {
    options.csv_dir = dir;
  }
  if (const char* dir = std::getenv("MRCC_BENCH_DATA_DIR")) {
    options.data_dir = dir;
  }
  if (const char* source = std::getenv("MRCC_BENCH_SOURCE")) {
    options.source = source;
  }
  if (const char* depths = std::getenv("MRCC_BENCH_READ_AHEAD")) {
    options.read_ahead = ParseReadAheadList(depths);
  }
  return options;
}

/// True when `arg` is `--<name>=<value>`; fills `value`.
inline bool MatchFlag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

/// Environment defaults plus command-line overrides — the entry point
/// every bench main() uses. Unknown flags abort with a usage message so a
/// typo cannot silently run the wrong configuration.
inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options = OptionsFromEnv();
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (MatchFlag(argv[i], "json_out", &value)) {
      options.json_out = value;
    } else if (MatchFlag(argv[i], "trace_out", &value)) {
      options.trace_out = value;
    } else if (MatchFlag(argv[i], "scale", &value)) {
      options.scale = std::strtod(value.c_str(), nullptr);
    } else if (MatchFlag(argv[i], "budget", &value)) {
      options.time_budget_seconds = std::strtod(value.c_str(), nullptr);
    } else if (MatchFlag(argv[i], "methods", &value)) {
      options.methods = SplitCsvList(value);
    } else if (MatchFlag(argv[i], "csv_dir", &value)) {
      options.csv_dir = value;
    } else if (MatchFlag(argv[i], "data_dir", &value)) {
      options.data_dir = value;
    } else if (MatchFlag(argv[i], "source", &value)) {
      options.source = value;
    } else if (MatchFlag(argv[i], "read_ahead", &value)) {
      options.read_ahead = ParseReadAheadList(value);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--json_out=PATH] "
                   "[--trace_out=PATH] [--scale=X] [--budget=S] "
                   "[--methods=A,B] [--csv_dir=DIR] [--data_dir=DIR] "
                   "[--source=memory|chunked|mmap] [--read_ahead=D0,D1]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  return options;
}

/// Owns the machine-readable output of one bench binary: accumulates
/// every measurement into a BenchRecord, and on Finish() stamps the
/// run totals (wall time, peak RSS, metrics snapshot) and writes the
/// --json_out / --trace_out files. Create exactly one per binary and
/// `return recorder.Finish();` from main().
class BenchRecorder {
 public:
  BenchRecorder(const std::string& bench_name, const BenchOptions& options)
      : options_(options) {
    record_.bench = bench_name;
    record_.scale = options.scale;
    record_.time_budget_seconds = options.time_budget_seconds;
    record_.num_threads_available =
        static_cast<int>(std::thread::hardware_concurrency());
    if (!options.trace_out.empty()) Trace::Enable();
  }

  void Add(const RunMeasurement& m) {
    record_.entries.push_back(ToBenchEntry(m));
  }

  /// For entries built outside the RunMeasurement harness (e.g. the data
  /// source comparison, which sets BenchEntry::source).
  void Add(const BenchEntry& entry) { record_.entries.push_back(entry); }

  /// Exit code for main(): 0, or 1 when an output file failed to write.
  int Finish() {
    record_.wall_seconds = wall_.ElapsedSeconds();
    record_.peak_rss_bytes = PeakRssBytes();
    record_.metrics = MetricsRegistry::Global().Snapshot().Flatten();
    int exit_code = 0;
    if (!options_.json_out.empty()) {
      if (Status s = record_.Save(options_.json_out); !s.ok()) {
        std::fprintf(stderr, "--json_out: %s\n", s.ToString().c_str());
        exit_code = 1;
      } else {
        std::printf("BenchRecord written to %s\n",
                    options_.json_out.c_str());
      }
    }
    if (!options_.trace_out.empty()) {
      if (Status s = Trace::WriteChromeJson(options_.trace_out); !s.ok()) {
        std::fprintf(stderr, "--trace_out: %s\n", s.ToString().c_str());
        exit_code = 1;
      } else {
        std::printf("Chrome trace (%zu spans) written to %s\n",
                    Trace::NumSpans(), options_.trace_out.c_str());
      }
    }
    return exit_code;
  }

 private:
  const BenchOptions options_;
  BenchRecord record_;
  Timer wall_;
};

/// Collects rows and mirrors them to stdout, (optionally) a CSV file and
/// (optionally) the binary's BenchRecord.
class ResultSink {
 public:
  ResultSink(const std::string& bench_name, const BenchOptions& options,
             BenchRecorder* recorder = nullptr)
      : recorder_(recorder) {
    if (!options.csv_dir.empty()) {
      csv_.open(options.csv_dir + "/" + bench_name + ".csv");
      if (csv_) csv_ << MeasurementCsvHeader() << "\n";
    }
  }

  void Add(const RunMeasurement& m) {
    std::printf("%s\n", FormatMeasurementRow(m).c_str());
    std::fflush(stdout);
    if (csv_) csv_ << MeasurementCsvRow(m) << "\n";
    if (recorder_ != nullptr) recorder_->Add(m);
  }

 private:
  std::ofstream csv_;
  BenchRecorder* recorder_;
};

// ---------------------------------------------------------------------
// Dataset cache: generated benchmark inputs keyed on every generator
// parameter. The cache file pair is
//   <data_dir>/<name>-<fnv64 of all config fields>.bin    (SaveBinary,
//       point values + ground-truth labels)
//   <data_dir>/<name>-<hash>.axes                         (per-cluster
//       relevant-axes truth, which the binary format does not carry)
// so any config change — including a seed or scale bump — misses the
// cache and regenerates, while repeat runs and benches sharing a config
// load the file instead of regenerating. Generation is deterministic, so
// a cache hit and a fresh generation are byte-identical inputs.

inline uint64_t Fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Every field of the config, flattened; doubles at full precision.
inline std::string ConfigFingerprint(const SyntheticConfig& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "|d=%zu|n=%zu|k=%zu|noise=%.17g|cd=%zu..%zu|sd=%.17g..%.17g"
                "|rot=%zu|seed=%llu",
                c.num_dims, c.num_points, c.num_clusters, c.noise_fraction,
                c.min_cluster_dims, c.max_cluster_dims, c.min_stddev,
                c.max_stddev, c.num_rotations,
                static_cast<unsigned long long>(c.seed));
  std::string key = c.name + buf;
  for (double w : c.cluster_weights) {
    std::snprintf(buf, sizeof(buf), "|w=%.17g", w);
    key += buf;
  }
  return key;
}

/// Writes the relevant-axes ground truth as a tiny text sidecar.
inline bool SaveAxesSidecar(const Clustering& truth, size_t num_dims,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "mrcc-axes 1\n" << truth.clusters.size() << ' ' << num_dims << '\n';
  for (const ClusterInfo& cluster : truth.clusters) {
    for (size_t j = 0; j < num_dims; ++j) {
      out << (j < cluster.relevant_axes.size() && cluster.relevant_axes[j]
                  ? '1'
                  : '0');
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

inline bool LoadAxesSidecar(const std::string& path, size_t num_dims,
                            std::vector<ClusterInfo>* clusters) {
  std::ifstream in(path);
  std::string magic;
  int version = 0;
  size_t k = 0, d = 0;
  if (!(in >> magic >> version >> k >> d) || magic != "mrcc-axes" ||
      version != 1 || d != num_dims) {
    return false;
  }
  clusters->clear();
  for (size_t c = 0; c < k; ++c) {
    std::string row;
    if (!(in >> row) || row.size() != d) return false;
    ClusterInfo info;
    info.relevant_axes.resize(d);
    for (size_t j = 0; j < d; ++j) info.relevant_axes[j] = row[j] == '1';
    clusters->push_back(std::move(info));
  }
  return true;
}

/// Cache lookup: a hit must reconstruct the full LabeledDataset (values,
/// labels, relevant axes) or it is treated as a miss.
inline bool TryLoadCached(const std::string& base, const SyntheticConfig& c,
                          LabeledDataset* out) {
  std::vector<int> labels;
  Result<Dataset> data = LoadBinary(base + ".bin", &labels);
  if (!data.ok() || labels.size() != data->NumPoints()) return false;
  std::vector<ClusterInfo> clusters;
  if (!LoadAxesSidecar(base + ".axes", data->NumDims(), &clusters)) {
    return false;
  }
  out->name = c.name;
  out->data = std::move(*data);
  out->truth.labels = std::move(labels);
  out->truth.clusters = std::move(clusters);
  return out->truth.Validate(out->data.NumPoints(), out->data.NumDims()).ok();
}

/// Generates a labeled dataset or dies (bench inputs are code, not user
/// input). With a non-empty `data_dir`, reads/writes the dataset cache
/// described above; cache failures fall back to regeneration silently
/// (the cache is an accelerator, never a correctness dependency).
inline LabeledDataset MustGenerate(const SyntheticConfig& config,
                                   const std::string& data_dir = "") {
  char hash[24];
  std::string base;
  if (!data_dir.empty()) {
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      Fnv64(ConfigFingerprint(config))));
    base = data_dir + "/" + config.name + "-" + hash;
    LabeledDataset cached;
    if (TryLoadCached(base, config, &cached)) return cached;
  }
  Result<LabeledDataset> r = GenerateSynthetic(config);
  if (!r.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", config.name.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  if (!base.empty()) {
    // Best effort: a failed write (missing dir, no space) leaves at most
    // a partial pair, which the next lookup rejects and overwrites.
    if (!SaveBinary(r->data, base + ".bin", &r->truth.labels).ok() ||
        !SaveAxesSidecar(r->truth, r->data.NumDims(), base + ".axes")) {
      std::remove((base + ".bin").c_str());
      std::remove((base + ".axes").c_str());
    }
  }
  return std::move(r).value();
}

/// Runs `method` over its §IV-E tuning grid on one dataset and returns the
/// best-Quality completed run (the paper's reporting rule). When every
/// configuration fails/times out, the last failure is returned.
inline RunMeasurement MeasureTuned(const std::string& method_name,
                                   const MethodTuning& tuning,
                                   const LabeledDataset& dataset,
                                   double time_budget_seconds,
                                   const std::vector<int>* class_labels =
                                       nullptr) {
  RunMeasurement best;
  best.method = method_name;
  best.dataset = dataset.name;
  best.error = "no tuning grid";
  bool have_success = false;
  for (TunedCandidate& candidate : TuningGrid(method_name, tuning)) {
    RunMeasurement m =
        class_labels == nullptr
            ? MeasureRun(*candidate.method, dataset, time_budget_seconds)
            : MeasureRunAgainstClasses(*candidate.method, dataset.data,
                                       *class_labels, dataset.name,
                                       time_budget_seconds);
    m.method = method_name;  // Grid entries share the method's name.
    if (m.completed) {
      if (!have_success || m.quality.quality > best.quality.quality) {
        best = m;
        have_success = true;
      }
    } else if (!have_success) {
      best = m;
    }
  }
  return best;
}

/// Runs every configured method (best-of-grid) over every dataset and
/// reports each cell of the paper panel.
inline void RunMatrix(const std::string& bench_name,
                      const std::vector<SyntheticConfig>& configs,
                      const BenchOptions& options,
                      BenchRecorder* recorder = nullptr) {
  ResultSink sink(bench_name, options, recorder);
  for (const SyntheticConfig& config : configs) {
    const LabeledDataset dataset = MustGenerate(config, options.data_dir);
    MethodTuning tuning;
    tuning.num_clusters = config.num_clusters;
    tuning.noise_fraction = config.noise_fraction;
    for (const std::string& name : options.methods) {
      sink.Add(
          MeasureTuned(name, tuning, dataset, options.time_budget_seconds));
    }
  }
}

inline void PrintHeader(const char* title, const char* paper_ref,
                        const BenchOptions& options) {
  std::printf("== %s ==\n", title);
  std::printf("reproduces %s | scale=%.3g budget=%.0fs methods=", paper_ref,
              options.scale, options.time_budget_seconds);
  for (size_t i = 0; i < options.methods.size(); ++i) {
    std::printf("%s%s", i > 0 ? "," : "", options.methods[i].c_str());
  }
  std::printf("\n%-8s %-10s %10s %12s %10s\n", "method", "dataset",
              "quality", "subspaceQ", "time");
}

}  // namespace mrcc::bench

// mrcc_bench: the end-to-end benchmark of the MrCC engine.
//
//   mrcc_bench --workload=<name|all> --seed=<S> [--seconds=<N>]
//              [--trace=<0|1>] [--out_dir=<DIR>] [--smoke]
//
// Every flag also takes the `--flag value` form. The workloads (README.md
// says why each exists):
//   paper-14d      1M points, d = 14, 17 clusters, in memory, MrCC::Run.
//   wide-30d       300k points, d = 30, clusters in 27-29 dimensions.
//   stream-window  paper-14d's points pushed in order through
//                  StreamingMrCC with a 131,072-point window; one
//                  iteration pushes two 4096-point chunks and takes one
//                  Snapshot().
//   sharded-4proc  paper-14d's file through `mrcc-build --shards=4`, read
//                  through ChunkedBinaryDataSource, page cache warm.
//
// Each workload clusters a fixed-design dataset; --seed shuffles the order
// of its axes (see Generate).
//
// Load shape: a closed loop in one process with T threads, half of
// min(4, CPUs) (see BenchThreads).
// Set-up (generate the points from the seed, write the file) runs five
// times and setup_s is the median. The file is then flushed to disk and
// read once, so the page cache is warm. One untimed warm-up iteration
// follows, then timed iterations back to back until --seconds have passed
// (at least three). Every iteration's output is checked.
//
// --trace=1 adds, after the timed loop, the passes that attribute time to
// layers, so the end-to-end numbers are always measured untraced: one
// traced iteration wrapped in bench.* spans, a scan-only pass over the
// input, a serial iteration (paper-14d, wide-30d), and for sharded-4proc
// the distributed build repeated in process one public call at a time.
//
// Output: every metric as `name value unit`; <DIR>/<workload>.json with
// the metrics, checks and span totals; <DIR>/<workload>.trace.json with
// the Chrome trace of the traced pass; and as the last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace=0) or the per-layer ones (--trace=1). The
// exit code is 1 when any check failed, 2 on a usage error.

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/mrcc.h"
#include "core/streaming_mrcc.h"
#include "core/tree_io.h"
#include "data/catalog.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "data/prefetch.h"
#include "dist/sharded_build.h"
#include "eval/quality.h"
#include "span_fold.h"

namespace mrcc::bench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr size_t kMinIterations = 3;
constexpr size_t kChunkPoints = 4096;  // MrCC's default scan chunk.
const size_t kReadAhead = MrCCParams().read_ahead_chunks;
constexpr double kQualityFloor = 0.90;
constexpr int kShards = 4;
constexpr size_t kCycleChunks = 2;   // stream-window: pushes per snapshot.
constexpr size_t kTracedCycles = 4;  // stream-window: cycles traced.
constexpr int kQualityWindows = 4;   // stream-window: windows scored.
constexpr double kMiB = 1024.0 * 1024.0;

const char* const kWorkloads[] = {"paper-14d", "wide-30d", "stream-window",
                                  "sharded-4proc"};

// ---------------------------------------------------------------------
// Metrics.

enum class Group { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Group group;
};

// Every metric the benchmark produces; BENCHMARK.json (MRCC_BENCHMARK_JSON)
// lists the same names, units and groups, checked on every run. A
// per-layer metric of a layer the workload does not exercise reads 0.
constexpr Group E = Group::kEndToEnd;
constexpr Group L = Group::kPerLayer;
constexpr MetricDef kMetricDefs[] = {
    {"setup_s", "s", E},
    {"run_s", "s", E},
    {"peak_mem_mb", "MiB", E},
    {"quality", "ratio", E},
    {"subspace_quality", "ratio", E},
    {"data.scan_s", "s", L},
    {"data.scan_chunk_s", "s", L},
    {"data.chunks", "count", L},
    {"data.prefetch_stalls", "count", L},
    {"tree.build_s", "s", L},
    {"tree.shard_max_s", "s", L},
    {"tree.merge_s", "s", L},
    {"tree.build_speedup", "x", L},
    {"tree.shard_imbalance", "ratio", L},
    {"tree.cells", "count", L},
    {"tree.memory_mb", "MiB", L},
    {"tree.merge_cells_merged", "count", L},
    {"tree.merge_cells_created", "count", L},
    {"beta.search_s", "s", L},
    {"beta.convolve_s", "s", L},
    {"beta.argmax_s", "s", L},
    {"beta.test_s", "s", L},
    {"beta.search_speedup", "x", L},
    {"beta.convolve_ns_per_cell", "ns", L},
    {"beta.cells_convolved", "count", L},
    {"beta.candidates_tested", "count", L},
    {"beta.binomial_tests", "count", L},
    {"beta.accepted", "count", L},
    {"cluster.merge_betas_s", "s", L},
    {"cluster.label_s", "s", L},
    {"cluster.label_speedup", "x", L},
    {"cluster.clusters", "count", L},
    {"stream.push_s", "s", L},
    {"stream.snapshot_s_p50", "s", L},
    {"stream.snapshot_s_p90", "s", L},
    {"stream.ingest_points_per_s", "points/s", L},
    {"stream.points_evicted", "count", L},
    {"stream.points_retained", "count", L},
    {"dist.shard_build_s", "s", L},
    {"dist.shard_write_s", "s", L},
    {"dist.shard_load_s", "s", L},
    {"dist.fold_s", "s", L},
    {"dist.artifact_mb", "MiB", L},
    {"bench.trace_overhead", "ratio", L},
    {"bench.layer_coverage", "ratio", L},
};

struct Metric {
  const MetricDef* def;
  double value = 0.0;
  size_t samples = 0;  // Measurements behind the value.
};

// Everything one workload run produces.
struct WorkloadResult {
  explicit WorkloadResult(std::string workload_name)
      : workload(std::move(workload_name)) {
    for (const MetricDef& def : kMetricDefs) metrics.push_back({&def});
  }

  void Set(const std::string& name, double value, size_t samples = 1) {
    for (Metric& m : metrics) {
      if (name == m.def->name) {
        m.value = value;
        m.samples = samples;
        return;
      }
    }
    std::fprintf(stderr, "mrcc_bench: unknown metric %s\n", name.c_str());
    std::abort();
  }

  double Get(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (name == m.def->name) return m.value;
    }
    return 0.0;
  }

  // Records one operation (an iteration or an end-of-run check); returns
  // `ok` so call sites can branch on it.
  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
    return ok;
  }

  std::string workload;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> run_samples;  // Wall seconds of each timed iteration.
  std::string labels_hash;  // Hex FNV-1a of the labels; "" for streams.
  std::optional<TraceFold> fold;
  std::string chrome_trace;
};

// ---------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "mrcc_bench: %s\nusage: mrcc_bench --workload=<name|all> "
               "--seed=<S> [--seconds=<N>] [--trace=<0|1>] [--out_dir=<DIR>] "
               "[--smoke]\nworkloads:",
               error.c_str());
  for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--smoke") {
      o.smoke = true;
      continue;
    }
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    double number = 0.0;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed" && ParseNumber(value, &number) &&
               number >= 0 && number == std::floor(number)) {
      o.seed = static_cast<uint64_t>(number);
    } else if (key == "--seconds" && ParseNumber(value, &number) &&
               number > 0) {
      o.seconds = number;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else if (key == "--out_dir" && !value.empty()) {
      o.out_dir = value;
    } else {
      Usage("bad flag " + key + " " + value);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

// ---------------------------------------------------------------------
// Measurement helpers.

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "mrcc_bench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

// T = half of min(4, CPUs), at least 1. The benchmark gets a few CPUs of a
// shared host. On a 4-vCPU VM, with one thread per CPU, one competing busy
// process slowed run_s by 4-28% and two by 19-68%, depending on the
// workload; at half the CPUs neither moved it by more than 4%.
int BenchThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::max(1, std::min(cpus, 4) / 2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t HashLabels(const std::vector<int>& labels) {
  return Fnv1a(labels.data(), labels.size() * sizeof(int));
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// Runs `setup` kSetupRepeats times; returns the median seconds.
template <typename Fn>
double MedianSetup(Fn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Timer timer;
    setup();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

struct Loop {
  std::vector<double> walls;  // Wall seconds of each timed iteration.
  // High-water mark of the process's live heap bytes over the timed
  // iterations (common/memory.h counts every operator new and delete).
  // Unlike the kernel's peak RSS it does not move with how the allocator
  // reuses freed pages from one iteration to the next.
  double peak_heap_mb = 0.0;
};

// Runs `iteration` back to back until `seconds` of loop time have passed
// and at least kMinIterations ran. `iteration` returns the seconds its
// timed part took (checking its output is not timed).
template <typename Fn>
Loop TimedLoop(double seconds, Fn&& iteration) {
  Loop loop;
  Timer timer;
  MemoryTracker::ResetPeak();
  while (loop.walls.size() < kMinIterations ||
         timer.ElapsedSeconds() < seconds) {
    loop.walls.push_back(iteration());
  }
  loop.peak_heap_mb = static_cast<double>(MemoryTracker::PeakBytes()) / kMiB;
  return loop;
}

void SetLoop(const Loop& loop, WorkloadResult* r) {
  r->run_samples = loop.walls;
  r->Set("run_s", Median(loop.walls), loop.walls.size());
  r->Set("peak_mem_mb", loop.peak_heap_mb, loop.walls.size());
}

// The workloads' datasets have a fixed design: cluster sizes, subspaces,
// means and spreads come from the generator's own seed, so every run
// clusters the same structure (paper-14d is the Base14dConfig design at
// 1M points).
SyntheticConfig PaperDesign(const Options& o) {
  SyntheticConfig c = Base14dConfig();
  c.name = "paper-14d";
  c.num_points = o.smoke ? 10'000 : 1'000'000;
  return c;
}

SyntheticConfig WideDesign(const Options& o) {
  SyntheticConfig c;
  c.name = "wide-30d";
  c.num_dims = 30;
  c.num_points = o.smoke ? 3'000 : 300'000;
  c.num_clusters = 10;
  c.noise_fraction = 0.15;
  c.min_cluster_dims = 27;
  c.max_cluster_dims = 29;
  c.seed = 0x30d0;
  return c;
}

// One instance of a design: --seed picks the order of the axes. The points
// keep the generator's (shuffled) order. An axis permutation is a symmetry
// of MrCC's grid (cells map one to one), so every seed costs the same work,
// the stream windows and the shards hold the same points, and a metric's
// seed-to-seed spread measures the machine, not the data. Shuffling the
// points as well would move the stream's quality and the shards' memory
// with the seed, and a new generator seed moves the cell counts by +-10%.
LabeledDataset Generate(const SyntheticConfig& design, uint64_t seed) {
  Result<LabeledDataset> base = GenerateSynthetic(design);
  if (!base.ok()) Die("generating " + design.name, base.status());
  const size_t n = base->data.NumPoints();
  const size_t d = base->data.NumDims();
  std::vector<size_t> axes(d);
  std::iota(axes.begin(), axes.end(), size_t{0});
  Rng rng(seed);
  rng.Shuffle(axes);
  LabeledDataset out;
  out.name = design.name;
  out.data = Dataset(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) out.data(i, j) = base->data(i, axes[j]);
  }
  out.truth.labels = std::move(base->truth.labels);
  for (const ClusterInfo& cluster : base->truth.clusters) {
    ClusterInfo info;
    info.relevant_axes.resize(d);
    for (size_t j = 0; j < d; ++j) {
      info.relevant_axes[j] = cluster.relevant_axes[axes[j]];
    }
    out.truth.clusters.push_back(std::move(info));
  }
  return out;
}

// Scratch directory of one workload inside the output directory.
std::string WorkDir(const Options& o, const std::string& workload) {
  const std::string dir = o.out_dir + "/work-" + workload;
  if (Status s = MakeDirs(dir); !s.ok()) Die("creating " + dir, s);
  return dir;
}

void Write(const Dataset& data, const std::string& path) {
  if (Status s = SaveBinary(data, path); !s.ok()) Die("writing " + path, s);
}

// Flushes the file at `path` to disk, so no writeback runs during the
// timed loop, and reads it back once, so the page cache is warm for the
// timed scans. Not part of setup_s, which would otherwise time the disk.
void FlushAndWarm(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    Die("flushing " + path, Status::IOError(std::strerror(errno)));
  }
  ::close(fd);
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  if (!source.ok()) Die("opening " + path, source.status());
  const Status s = source->ScanChunks(
      0, source->NumPoints(), kChunkPoints,
      [](size_t, std::span<const double>) { return Status::OK(); });
  if (!s.ok()) Die("reading " + path, s);
}

void SetQuality(const Clustering& found, const Clustering& truth,
                WorkloadResult* r) {
  const QualityReport q = EvaluateClustering(found, truth);
  r->Set("quality", q.quality);
  r->Set("subspace_quality", q.subspace_quality);
}

// One read of the whole source through the read-ahead scanner MrCC's
// scans use. The consumer does nothing, so the time is the data layer's.
void ScanOnly(const DataSource& source, WorkloadResult* r) {
  const ReadAheadScanner scanner(source, kReadAhead);
  PrefetchStats stats;
  Timer timer;
  const Status s = scanner.ScanChunks(
      0, source.NumPoints(), kChunkPoints,
      [](size_t, std::span<const double>) { return Status::OK(); }, &stats);
  const double seconds = timer.ElapsedSeconds();
  if (r->Op(s.ok(), "scan-only pass: " + s.ToString())) {
    r->Set("data.scan_s", seconds);
    r->Set("data.chunks", static_cast<double>(stats.chunks));
  }
}

// Runs `body` with tracing on, inside one bench.iteration span, and folds
// the trace. `iterations` is how many iterations the span holds; the
// overhead compares the traced wall per iteration with `untraced_s`.
template <typename Fn>
void Traced(size_t iterations, double untraced_s, Fn&& body,
            WorkloadResult* r) {
  Trace::Clear();
  Trace::Enable();
  {
    TraceSpan span("bench.iteration");
    body();
  }
  Trace::Disable();
  r->chrome_trace = Trace::ToChromeJson();
  Trace::Clear();
  Result<TraceFold> fold = FoldTrace(r->chrome_trace, "bench.iteration");
  if (!r->Op(fold.ok(), "folding the trace: " + fold.status().ToString())) {
    return;
  }
  r->fold = std::move(*fold);
  const double traced_s =
      r->fold->wall_s / static_cast<double>(std::max<size_t>(1, iterations));
  r->Set("bench.trace_overhead",
         untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0);
  r->Set("bench.layer_coverage", r->fold->coverage);
}

void SetBetaLayers(const TraceFold& f, const BetaSearchStats& beta,
                   WorkloadResult* r) {
  r->Set("beta.search_s",
         f.Total("beta.search") + f.Total("bench.beta_search"));
  r->Set("beta.convolve_s", f.Total("beta.convolve"));
  r->Set("beta.argmax_s", f.Total("beta.argmax"));
  r->Set("beta.test_s", f.Total("beta.test"));
  r->Set("beta.convolve_ns_per_cell",
         beta.cells_convolved > 0
             ? f.Total("beta.convolve") * 1e9 /
                   static_cast<double>(beta.cells_convolved)
             : 0.0);
  r->Set("beta.cells_convolved", static_cast<double>(beta.cells_convolved));
  r->Set("beta.candidates_tested",
         static_cast<double>(beta.candidates_tested));
  r->Set("beta.binomial_tests", static_cast<double>(beta.binomial_tests));
  r->Set("beta.accepted", static_cast<double>(beta.accepted));
}

void SetTreeCounters(const std::vector<size_t>& cells_per_level,
                     size_t memory_bytes, const MergeTreeStats& merge,
                     WorkloadResult* r) {
  size_t cells = 0;
  for (size_t c : cells_per_level) cells += c;
  r->Set("tree.cells", static_cast<double>(cells));
  r->Set("tree.memory_mb", static_cast<double>(memory_bytes) / kMiB);
  r->Set("tree.merge_cells_merged", static_cast<double>(merge.cells_merged));
  r->Set("tree.merge_cells_created",
         static_cast<double>(merge.cells_created));
}

BetaSearchStats& operator+=(BetaSearchStats& a, const BetaSearchStats& b) {
  a.cells_convolved += b.cells_convolved;
  a.candidates_tested += b.candidates_tested;
  a.binomial_tests += b.binomial_tests;
  a.accepted += b.accepted;
  return a;
}

// ---------------------------------------------------------------------
// paper-14d and wide-30d: MrCC::Run end to end over points in memory.

WorkloadResult RunBatch(const Options& o, const std::string& name,
                        const SyntheticConfig& design) {
  WorkloadResult r(name);
  LabeledDataset dataset;
  r.Set("setup_s",
        MedianSetup([&] { dataset = Generate(design, o.seed); }),
        kSetupRepeats);
  const size_t n = dataset.data.NumPoints();

  MrCCParams params;
  params.num_threads = BenchThreads();
  std::optional<uint64_t> expected_hash;
  const auto run_once = [&](const MrCCParams& p) {
    return MrCC(p).Run(dataset.data);
  };
  const auto check = [&](const Result<MrCCResult>& result,
                         const std::string& what) {
    if (!result.ok()) {
      return r.Op(false, what + ": " + result.status().ToString());
    }
    if (result->stats.degraded) return r.Op(false, what + ": degraded");
    if (result->clustering.labels.size() != n) {
      return r.Op(false, what + ": wrong label count");
    }
    const uint64_t hash = HashLabels(result->clustering.labels);
    if (!expected_hash) expected_hash = hash;
    return r.Op(hash == *expected_hash,
                what + ": labels hash " + Hex(hash) + " != " +
                    Hex(*expected_hash));
  };

  check(run_once(params), "warm-up iteration");
  std::vector<MrCCStats> stats;
  Clustering last;
  const Loop loop = TimedLoop(o.seconds, [&] {
    Timer timer;
    Result<MrCCResult> result = run_once(params);
    const double seconds = timer.ElapsedSeconds();
    if (check(result, "timed iteration")) {
      stats.push_back(result->stats);
      last = std::move(result->clustering);
    }
    return seconds;
  });
  SetLoop(loop, &r);
  SetQuality(last, dataset.truth, &r);
  if (!o.smoke) {
    r.Op(r.Get("quality") >= kQualityFloor,
         "quality " + std::to_string(r.Get("quality")) + " below floor");
  }
  if (expected_hash) r.labels_hash = Hex(*expected_hash);

  if (!o.trace) return r;
  ScanOnly(MemoryDataSource(dataset.data), &r);

  // The serial run gives each stage's speed-up at T threads, and must
  // produce the same labels as the parallel runs.
  MrCCParams serial_params = params;
  serial_params.num_threads = 1;
  Result<MrCCResult> serial = run_once(serial_params);
  if (check(serial, "serial iteration") && !stats.empty()) {
    const auto median_of = [&](double MrCCStats::*field) {
      std::vector<double> v;
      for (const MrCCStats& s : stats) v.push_back(s.*field);
      return Median(v);
    };
    r.Set("tree.build_speedup",
          serial->stats.tree_build_seconds /
              median_of(&MrCCStats::tree_build_seconds));
    r.Set("beta.search_speedup",
          serial->stats.beta_search_seconds /
              median_of(&MrCCStats::beta_search_seconds));
    r.Set("cluster.label_speedup",
          serial->stats.cluster_build_seconds /
              median_of(&MrCCStats::cluster_build_seconds));
  }

  Result<MrCCResult> traced(Status::Internal("traced iteration not run"));
  Traced(1, r.Get("run_s"), [&] {
    TraceSpan span("bench.mrcc_run");
    traced = run_once(params);
  }, &r);
  if (!check(traced, "traced iteration") || !r.fold) return r;
  const TraceFold& f = *r.fold;
  const MrCCStats& s = traced->stats;
  r.Set("data.scan_chunk_s", f.Total("source.scan_chunk"));
  r.Set("data.prefetch_stalls", static_cast<double>(s.prefetch_stalls));
  r.Set("tree.build_s", f.Total("tree.build") - f.Total("tree.merge"));
  r.Set("tree.shard_max_s", f.Max("tree.build.shard"));
  r.Set("tree.merge_s", f.Total("tree.merge"));
  r.Set("tree.shard_imbalance", s.shard_imbalance);
  SetTreeCounters(s.cells_per_level, s.tree_memory_bytes, s.tree_merge, &r);
  SetBetaLayers(f, s.beta_search, &r);
  r.Set("cluster.merge_betas_s", f.Total("cluster.merge_betas"));
  r.Set("cluster.label_s", f.Total("cluster.label_points"));
  r.Set("cluster.clusters",
        static_cast<double>(traced->clustering.NumClusters()));
  return r;
}

// ---------------------------------------------------------------------
// stream-window: the incremental engine over a sliding window.

struct StreamShape {
  size_t chunk;
  size_t window;
  size_t generations;
};

StreamShape ShapeFor(const Options& o) {
  if (o.smoke) return {256, 4096, 8};
  return {4096, 131072, 8};
}

// Streams a dataset's points in order, wrapping around at the end, so a
// feed of any length is a deterministic function of the dataset.
class Feed {
 public:
  Feed(const Dataset& data, size_t chunk) : data_(&data), chunk_(chunk) {}

  // Pushes the next `points` points, at most one chunk per PushChunk.
  Status Push(StreamingMrCC* engine, size_t points) {
    const size_t n = data_->NumPoints();
    const size_t d = data_->NumDims();
    while (points > 0) {
      const size_t at = static_cast<size_t>(pushed_ % n);
      const size_t take = std::min({points, chunk_, n - at});
      MRCC_RETURN_IF_ERROR(engine->PushChunk(
          std::span<const double>(data_->Point(at).data(), take * d)));
      pushed_ += take;
      points -= take;
    }
    return Status::OK();
  }

  // Dataset indices of the last `count` points pushed, in stream order.
  std::vector<size_t> Suffix(uint64_t count) const {
    std::vector<size_t> indices;
    for (uint64_t i = pushed_ - count; i < pushed_; ++i) {
      indices.push_back(static_cast<size_t>(i % data_->NumPoints()));
    }
    return indices;
  }

 private:
  const Dataset* data_;
  size_t chunk_;
  uint64_t pushed_ = 0;
};

bool SameBetas(const std::vector<BetaCluster>& a,
               const std::vector<BetaCluster>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lower != b[i].lower || a[i].upper != b[i].upper ||
        a[i].relevant != b[i].relevant || a[i].level != b[i].level ||
        a[i].center_count != b[i].center_count) {
      return false;
    }
  }
  return true;
}

// The window must cluster exactly like MrCC::Run over the retained points:
// the same β-clusters and the same labels for those points. Returns the
// snapshot's clustering of them and fills `truth` with theirs.
Clustering CheckWindow(StreamingMrCC* engine, const Feed& feed,
                       const LabeledDataset& dataset, int threads,
                       const std::string& what, Clustering* truth,
                       WorkloadResult* r) {
  const std::vector<size_t> indices = feed.Suffix(engine->points_retained());
  Dataset retained(indices.size(), dataset.data.NumDims());
  truth->clusters = dataset.truth.clusters;
  truth->labels.clear();
  for (size_t i = 0; i < indices.size(); ++i) {
    const std::span<const double> p = dataset.data.Point(indices[i]);
    for (size_t j = 0; j < p.size(); ++j) retained(i, j) = p[j];
    truth->labels.push_back(dataset.truth.labels[indices[i]]);
  }
  Result<MrCCResult> snapshot = engine->Snapshot(MemoryDataSource(retained));
  MrCCParams batch_params;
  batch_params.num_threads = threads;
  Result<MrCCResult> batch = MrCC(batch_params).Run(retained);
  if (!r->Op(snapshot.ok() && batch.ok(), what + ": run failed")) return {};
  r->Op(!snapshot->beta_clusters.empty() &&
            SameBetas(snapshot->beta_clusters, batch->beta_clusters) &&
            snapshot->clustering.labels == batch->clustering.labels,
        what + ": window snapshot differs from MrCC::Run over the "
               "retained points");
  return std::move(snapshot->clustering);
}

WorkloadResult RunStream(const Options& o) {
  WorkloadResult r("stream-window");
  const StreamShape shape = ShapeFor(o);
  const int threads = BenchThreads();
  LabeledDataset dataset;
  r.Set("setup_s",
        MedianSetup([&] { dataset = Generate(PaperDesign(o), o.seed); }),
        kSetupRepeats);
  const size_t d = dataset.data.NumDims();
  MrCCParams params;
  params.num_threads = threads;
  params.window.points = shape.window;
  params.window.generations = shape.generations;
  const size_t cycle_points = kCycleChunks * shape.chunk;
  const size_t fill_points = shape.window + cycle_points;

  const auto make_engine = [&] {
    Result<StreamingMrCC> engine = StreamingMrCC::Create(params, d);
    if (!engine.ok()) Die("creating the stream engine", engine.status());
    return std::move(engine).value();
  };

  // Warm-up: fill the window, then check it at kQualityWindows fixed
  // stream positions a fraction of a window apart. Quality is their mean:
  // one window's score moves by a few percent with the points it holds.
  StreamingMrCC engine = make_engine();
  Feed feed(dataset.data, shape.chunk);
  r.Op(feed.Push(&engine, fill_points).ok(), "warm-up fill");
  double quality = 0.0;
  double subspace_quality = 0.0;
  for (int k = 0; k < kQualityWindows; ++k) {
    if (k > 0) {
      r.Op(feed.Push(&engine, shape.window / kQualityWindows).ok(),
           "warm-up push");
    }
    Clustering truth;
    const Clustering found = CheckWindow(&engine, feed, dataset, threads,
                                         "warm-up window", &truth, &r);
    const QualityReport q = EvaluateClustering(found, truth);
    quality += q.quality / kQualityWindows;
    subspace_quality += q.subspace_quality / kQualityWindows;
  }
  r.Set("quality", quality, kQualityWindows);
  r.Set("subspace_quality", subspace_quality, kQualityWindows);

  std::vector<double> push_s;
  std::vector<double> snapshot_s;
  const Loop loop = TimedLoop(o.seconds, [&] {
    Timer timer;
    const Status pushed = feed.Push(&engine, cycle_points);
    push_s.push_back(timer.ElapsedSeconds());
    Timer snap_timer;
    Result<MrCCResult> snapshot = engine.Snapshot();
    snapshot_s.push_back(snap_timer.ElapsedSeconds());
    const double seconds = timer.ElapsedSeconds();
    r.Op(pushed.ok() && snapshot.ok() && !snapshot->stats.degraded &&
             !snapshot->beta_clusters.empty(),
         "timed cycle");
    return seconds;
  });
  SetLoop(loop, &r);
  r.Set("stream.snapshot_s_p50", Median(snapshot_s), snapshot_s.size());
  r.Set("stream.snapshot_s_p90", Quantile(snapshot_s, 0.9),
        snapshot_s.size());
  r.Set("stream.ingest_points_per_s",
        static_cast<double>(push_s.size() * cycle_points) /
            std::accumulate(push_s.begin(), push_s.end(), 0.0),
        push_s.size());
  Clustering final_truth;
  CheckWindow(&engine, feed, dataset, threads, "final window", &final_truth,
              &r);

  if (!o.trace) return r;
  ScanOnly(MemoryDataSource(dataset.data), &r);
  // A fresh engine at the first warm-up position, so the traced cycles and
  // their work counters do not depend on how many cycles the timed loop
  // ran.
  StreamingMrCC traced_engine = make_engine();
  Feed traced_feed(dataset.data, shape.chunk);
  r.Op(traced_feed.Push(&traced_engine, fill_points).ok(), "traced fill");
  BetaSearchStats beta;
  MergeTreeStats merge;
  std::optional<MrCCResult> last;
  bool ok = true;
  Traced(kTracedCycles, r.Get("run_s"), [&] {
    for (size_t c = 0; c < kTracedCycles; ++c) {
      for (size_t k = 0; k < kCycleChunks; ++k) {
        TraceSpan span("bench.push_chunk");
        ok = ok && traced_feed.Push(&traced_engine, shape.chunk).ok();
      }
      TraceSpan span("bench.snapshot");
      Result<MrCCResult> snapshot = traced_engine.Snapshot();
      ok = ok && snapshot.ok() && !snapshot->stats.degraded;
      if (!snapshot.ok()) continue;
      beta += snapshot->stats.beta_search;
      merge += snapshot->stats.tree_merge;
      last = std::move(*snapshot);
    }
  }, &r);
  if (!r.Op(ok && last.has_value(), "traced cycles") || !r.fold) return r;
  const TraceFold& f = *r.fold;
  r.Set("tree.merge_s", f.Total("tree.merge"));
  SetTreeCounters(last->stats.cells_per_level, last->stats.tree_memory_bytes,
                  merge, &r);
  SetBetaLayers(f, beta, &r);
  r.Set("cluster.merge_betas_s", f.Total("cluster.merge_betas"));
  r.Set("cluster.clusters",
        static_cast<double>(last->clustering.NumClusters()));
  r.Set("stream.push_s", f.Total("bench.push_chunk"));
  r.Set("stream.points_evicted",
        static_cast<double>(traced_engine.points_evicted()));
  r.Set("stream.points_retained",
        static_cast<double>(traced_engine.points_retained()));
  return r;
}

// ---------------------------------------------------------------------
// sharded-4proc: the multi-process build tool, then the same build in
// process one public call at a time.

// Runs `argv` and waits for it; true on exit 0. A non-empty `stdout_path`
// receives its standard output. `peak_rss_mb`, when non-null, receives the
// largest peak RSS of the process and of the processes it waited for. The
// kernel starts a forked child's count at the RSS it inherits, so the heap
// this process no longer uses is returned first. posix_spawn would be
// worse: its child shares this process's memory until exec and inherits
// its lifetime high-water mark.
bool RunProcess(const std::vector<std::string>& argv,
                const std::string& stdout_path, double* peak_rss_mb) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  malloc_trim(0);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    if (!stdout_path.empty()) {
      const int out =
          open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) dup2(out, STDOUT_FILENO);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  if (pid < 0) {
    std::fprintf(stderr, "mrcc_bench: fork: %s\n", std::strerror(errno));
    return false;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return false;
  }
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// The clustering in a result JSON written by `mrcc-build --out`. The
// labels array is read directly; the rest goes through the JSON parser.
Result<Clustering> ReadBuildResult(const std::string& path, size_t num_dims) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  const std::string key = "\"labels\":[";
  const size_t begin = text->find(key);
  const size_t end =
      begin == std::string::npos ? begin : text->find(']', begin);
  if (end == std::string::npos) {
    return Status::InvalidArgument(path + " has no labels array");
  }
  Clustering clustering;
  const char* p = text->c_str() + begin + key.size();
  const char* stop = text->c_str() + end;
  while (p < stop) {
    char* next = nullptr;
    clustering.labels.push_back(static_cast<int>(std::strtol(p, &next, 10)));
    if (next == p) return Status::InvalidArgument(path + ": bad label");
    p = *next == ',' ? next + 1 : next;
  }
  text->erase(begin + key.size(), end - begin - key.size());
  Result<JsonValue> doc = ParseJson(*text);
  if (!doc.ok()) return doc.status();
  const JsonValue* clusters = doc->Find("clusters");
  if (clusters == nullptr) {
    return Status::InvalidArgument(path + ": no clusters");
  }
  for (const JsonValue& c : clusters->array) {
    ClusterInfo info;
    info.relevant_axes.assign(num_dims, false);
    if (const JsonValue* axes = c.Find("relevant_axes")) {
      for (const JsonValue& axis : axes->array) {
        const size_t j = static_cast<size_t>(axis.number_value);
        if (j < num_dims) info.relevant_axes[j] = true;
      }
    }
    clustering.clusters.push_back(std::move(info));
  }
  return clustering;
}

// The in-process repeat of one sharded build: what each mrcc-shard worker
// and the merge step of mrcc-build do, as separate public calls.
struct InProcessBuild {
  std::vector<int> labels;
  BetaSearchStats beta;
  MergeTreeStats merge;
  std::vector<size_t> cells_per_level;
  size_t tree_memory_bytes = 0;
  size_t clusters = 0;
  uint64_t artifact_bytes = 0;
  uint64_t prefetch_stalls = 0;
};

Status BuildInProcess(const dist::ShardedBuildOptions& options,
                      InProcessBuild* out) {
  Result<dist::BuildManifest> manifest(Status::Internal("not prepared"));
  {
    TraceSpan span("bench.prepare_manifest");
    manifest = dist::PrepareManifest(options);
  }
  MRCC_RETURN_IF_ERROR(manifest.status());
  for (size_t i = 0; i < manifest->shards.size(); ++i) {
    const dist::ShardPlan& plan = manifest->shards[i];
    Result<CountingTree> tree(Status::Internal("not built"));
    {
      TraceSpan span("bench.build_shard");
      tree = dist::BuildShardTree(options, plan.begin, plan.end);
    }
    MRCC_RETURN_IF_ERROR(tree.status());
    const dist::ShardMeta meta{plan.begin, plan.end, plan.end - plan.begin};
    const std::string path = dist::ShardArtifactPath(options.work_dir, i);
    TraceSpan span("bench.write_artifact");
    MRCC_RETURN_IF_ERROR(dist::WriteShardArtifact(*tree, meta, path));
    out->artifact_bytes += std::filesystem::file_size(path);
  }

  std::optional<CountingTree> tree;
  {
    TraceSpan fold("bench.fold");
    for (size_t i = 0; i < manifest->shards.size(); ++i) {
      Result<dist::ShardArtifact> artifact(Status::Internal("not read"));
      {
        TraceSpan span("bench.read_artifact");
        artifact = dist::ReadShardArtifact(
            dist::ShardArtifactPath(options.work_dir, i));
      }
      MRCC_RETURN_IF_ERROR(artifact.status());
      if (!tree) {
        tree = std::move(artifact->tree);
        continue;
      }
      TraceSpan span("bench.merge_tree");
      Result<MergeTreeStats> merged = MergeTree(&*tree, artifact->tree);
      MRCC_RETURN_IF_ERROR(merged.status());
      out->merge += *merged;
    }
  }
  for (int h = 1; h < tree->num_resolutions(); ++h) {
    out->cells_per_level.push_back(tree->NumCellsAtLevel(h));
  }
  out->tree_memory_bytes = tree->MemoryBytes();

  BetaFinderOptions finder;
  finder.alpha = options.params.alpha;
  finder.num_threads = options.params.num_threads;
  Result<BetaSearchResult> search(Status::Internal("not searched"));
  {
    TraceSpan span("bench.beta_search");
    search = RunBetaSearch(*tree, finder);
  }
  MRCC_RETURN_IF_ERROR(search.status());
  out->beta = search->stats;
  std::vector<int> beta_to_cluster;
  {
    TraceSpan span("bench.merge_betas");
    out->clusters = MergeBetaClusters(search->betas, tree->num_dims(),
                                      &beta_to_cluster)
                        .NumClusters();
  }
  TraceSpan span("bench.label_points");
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(options.dataset_path);
  MRCC_RETURN_IF_ERROR(source.status());
  PrefetchStats prefetch;
  Result<std::vector<int>> labels = LabelPoints(
      search->betas, beta_to_cluster, *source, options.params.num_threads,
      BadPointPolicy::kReject, kChunkPoints, kReadAhead, &prefetch);
  MRCC_RETURN_IF_ERROR(labels.status());
  out->labels = std::move(*labels);
  out->prefetch_stalls = prefetch.stalls;
  return Status::OK();
}

WorkloadResult RunSharded(const Options& o) {
  WorkloadResult r("sharded-4proc");
  const int threads = BenchThreads();
  const std::string dir = WorkDir(o, r.workload);
  const std::string file = dir + "/points.bin";
  const std::string build_dir = dir + "/build";
  const std::string result_path = dir + "/result.json";
  LabeledDataset dataset;
  r.Set("setup_s", MedianSetup([&] {
          dataset = Generate(PaperDesign(o), o.seed);
          Write(dataset.data, file);
        }),
        kSetupRepeats);
  FlushAndWarm(file);
  const size_t n = dataset.data.NumPoints();
  const size_t d = dataset.data.NumDims();
  MrCCParams params;
  params.num_threads = threads;
  // The reference runs serially: worker threads would leave glibc arenas
  // behind that no trim returns, and every forked mrcc-build would start
  // its peak RSS count from them.
  MrCCParams serial_params = params;
  serial_params.num_threads = 1;
  std::optional<uint64_t> expected_hash;
  Result<MrCCResult> reference = MrCC(serial_params).Run(dataset.data);
  if (r.Op(reference.ok(), "in-memory reference run")) {
    expected_hash = HashLabels(reference->clustering.labels);
    r.labels_hash = Hex(*expected_hash);
  }
  dataset.data = Dataset();

  const std::vector<std::string> argv = {
      MRCC_BUILD_TOOL,
      "--data=" + file,
      "--work-dir=" + build_dir,
      "--shards=" + std::to_string(kShards),
      "--workers=" + std::to_string(threads),
      "--threads=" + std::to_string(threads),
      "--out=" + result_path};
  Clustering last;
  // The build's memory lives in mrcc-build and its workers, each a fresh
  // process per iteration, so their peak RSS is the memory metric here.
  double process_peak_mb = 0.0;
  const auto run_once = [&](const std::string& what) {
    std::filesystem::remove_all(build_dir);
    std::filesystem::remove(result_path);
    Timer timer;
    double peak_mb = 0.0;
    const bool ok = RunProcess(argv, dir + "/mrcc-build.log", &peak_mb);
    process_peak_mb = std::max(process_peak_mb, peak_mb);
    const double seconds = timer.ElapsedSeconds();
    if (!r.Op(ok, what + ": mrcc-build failed")) return seconds;
    Result<Clustering> result = ReadBuildResult(result_path, d);
    if (!r.Op(result.ok() && result->labels.size() == n,
              what + ": unreadable result")) {
      return seconds;
    }
    const uint64_t hash = HashLabels(result->labels);
    if (r.Op(expected_hash && hash == *expected_hash,
             what + ": labels hash " + Hex(hash) + " != reference")) {
      last = std::move(*result);
    }
    return seconds;
  };

  run_once("warm-up iteration");
  process_peak_mb = 0.0;
  SetLoop(TimedLoop(o.seconds, [&] { return run_once("timed iteration"); }),
          &r);
  r.Set("peak_mem_mb", process_peak_mb, r.run_samples.size());
  SetQuality(last, dataset.truth, &r);

  if (!o.trace) return r;
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(file);
  if (!source.ok()) Die("opening " + file, source.status());
  ScanOnly(*source, &r);
  dist::ShardedBuildOptions options;
  options.dataset_path = file;
  options.work_dir = build_dir;
  options.num_shards = kShards;
  options.params = params;
  // Untraced once, as the baseline of the tracing overhead (the
  // multi-process run_s is a different execution), then traced.
  InProcessBuild build;
  std::filesystem::remove_all(build_dir);
  Timer untraced;
  Status built = BuildInProcess(options, &build);
  const double untraced_s = untraced.ElapsedSeconds();
  build = InProcessBuild();
  std::filesystem::remove_all(build_dir);
  if (built.ok()) {
    Traced(1, untraced_s, [&] { built = BuildInProcess(options, &build); },
           &r);
  }
  if (!r.Op(built.ok(), "in-process build: " + built.ToString()) || !r.fold) {
    return r;
  }
  r.Op(expected_hash && HashLabels(build.labels) == *expected_hash,
       "in-process build: labels differ from the reference");
  const TraceFold& f = *r.fold;
  r.Set("data.scan_chunk_s", f.Total("source.scan_chunk"));
  r.Set("data.prefetch_stalls", static_cast<double>(build.prefetch_stalls));
  r.Set("tree.build_s", f.Total("bench.build_shard"));
  r.Set("tree.merge_s", f.Total("bench.merge_tree"));
  SetTreeCounters(build.cells_per_level, build.tree_memory_bytes, build.merge,
                  &r);
  SetBetaLayers(f, build.beta, &r);
  r.Set("cluster.merge_betas_s", f.Total("bench.merge_betas"));
  r.Set("cluster.label_s", f.Total("bench.label_points"));
  r.Set("cluster.clusters", static_cast<double>(build.clusters));
  r.Set("dist.shard_build_s", f.Max("bench.build_shard"));
  r.Set("dist.shard_write_s", f.Total("bench.write_artifact"));
  r.Set("dist.shard_load_s", f.Total("bench.read_artifact"));
  r.Set("dist.fold_s", f.Total("bench.fold"));
  r.Set("dist.artifact_mb", static_cast<double>(build.artifact_bytes) / kMiB);
  return r;
}

WorkloadResult RunWorkload(const Options& o, const std::string& name) {
  WorkloadResult r =
      name == "paper-14d"       ? RunBatch(o, name, PaperDesign(o))
      : name == "wide-30d"      ? RunBatch(o, name, WideDesign(o))
      : name == "stream-window" ? RunStream(o)
                                : RunSharded(o);
  std::filesystem::remove_all(o.out_dir + "/work-" + name);
  for (const Metric& m : r.metrics) {
    if (m.def->group == Group::kEndToEnd) {
      r.Op(m.value > 0.0, std::string(m.def->name) + " was not measured");
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Output.

// BENCHMARK.json must name exactly the metrics of kMetricDefs, with the
// same units, in the same groups.
void CheckBenchmarkJson(WorkloadResult* r) {
  const std::string path = MRCC_BENCHMARK_JSON;
  Result<std::string> text = ReadFileToString(path);
  Result<JsonValue> doc =
      text.ok() ? ParseJson(*text) : Result<JsonValue>(text.status());
  if (!r->Op(doc.ok(), "reading " + path + ": " + doc.status().ToString())) {
    return;
  }
  std::map<std::string, std::pair<std::string, Group>> listed;
  for (const auto& [key, group] :
       {std::pair{"end_to_end", Group::kEndToEnd},
        std::pair{"per_layer", Group::kPerLayer}}) {
    if (const JsonValue* list = doc->Find(key)) {
      for (const JsonValue& m : list->array) {
        listed[JsonStringOr(m.Find("name"), "")] = {
            JsonStringOr(m.Find("unit"), ""), group};
      }
    }
  }
  bool same = listed.size() == r->metrics.size();
  for (const Metric& m : r->metrics) {
    const auto it = listed.find(m.def->name);
    same = same && it != listed.end() && it->second.first == m.def->unit &&
           it->second.second == m.def->group;
  }
  r->Op(same, path + " does not list exactly the metrics mrcc_bench prints");
}

std::string Number(double v) {
  std::string out;
  AppendJsonDouble(std::isfinite(v) ? v : 0.0, &out);
  return out;
}

std::string MetricsJson(const WorkloadResult& r, Group group) {
  std::string out = "{";
  for (const Metric& m : r.metrics) {
    if (m.def->group != group) continue;
    if (out.size() > 1) out += ',';
    AppendJsonEscaped(m.def->name, &out);
    out += ":{\"value\":" + Number(m.value) + ",\"unit\":";
    AppendJsonEscaped(m.def->unit, &out);
    out += '}';
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::string& metrics) {
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":" + metrics +
         "}";
}

// <out_dir>/<workload>.json: the run's settings, checks, every metric and,
// when traced, the span totals and the per-layer split of the traced wall.
std::string RecordJson(const Options& o, const WorkloadResult& r) {
  std::string out = "{\"workload\":";
  AppendJsonEscaped(r.workload, &out);
  out += ",\"seed\":" + std::to_string(o.seed) +
         ",\"seconds\":" + Number(o.seconds) +
         ",\"threads\":" + std::to_string(BenchThreads()) +
         ",\"smoke\":" + (o.smoke ? "true" : "false") +
         ",\"trace\":" + (o.trace ? "true" : "false") +
         ",\"iterations\":" + std::to_string(r.run_samples.size()) +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"run_s_samples\":[";
  for (size_t i = 0; i < r.run_samples.size(); ++i) {
    if (i > 0) out += ',';
    out += Number(r.run_samples[i]);
  }
  out += "],\"labels_hash\":";
  AppendJsonEscaped(r.labels_hash, &out);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonEscaped(r.failures[i], &out);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ',';
    AppendJsonEscaped(m.def->name, &out);
    out += ":{\"value\":" + Number(m.value) + ",\"unit\":";
    AppendJsonEscaped(m.def->unit, &out);
    out += ",\"group\":";
    AppendJsonEscaped(
        m.def->group == Group::kEndToEnd ? "end_to_end" : "per_layer", &out);
    out += ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  out += "}";
  if (r.fold) {
    out += ",\"traced_wall_s\":" + Number(r.fold->wall_s) + ",\"layers\":{";
    bool first = true;
    for (const auto& [layer, seconds] : r.fold->top_level_s) {
      if (!first) out += ',';
      first = false;
      AppendJsonEscaped(layer, &out);
      out += ":" + Number(seconds);
    }
    out += "},\"spans\":{";
    first = true;
    for (const auto& [name, s] : r.fold->spans) {
      if (!first) out += ',';
      first = false;
      AppendJsonEscaped(name, &out);
      out += ":{\"layer\":";
      AppendJsonEscaped(LayerOf(name), &out);
      out += ",\"count\":" + std::to_string(s.count) +
             ",\"total_s\":" + Number(s.total_s) +
             ",\"self_s\":" + Number(s.self_s) +
             ",\"max_s\":" + Number(s.max_s) + "}";
    }
    out += "}";
  }
  return out + "}\n";
}

void Report(const Options& o, const WorkloadResult& r) {
  std::printf("# %s seed %llu threads %d iterations %zu labels_hash %s\n",
              r.workload.c_str(), static_cast<unsigned long long>(o.seed),
              BenchThreads(), r.run_samples.size(),
              r.labels_hash.empty() ? "-" : r.labels_hash.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %s\n", m.def->name, Number(m.value).c_str(),
                m.def->unit);
  }
  std::printf("# failed_frac %s (%llu of %llu operations)\n",
              Number(r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& failure : r.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }
  const std::string base = o.out_dir + "/" + r.workload;
  if (Status s = WriteFileAtomic(base + ".json", RecordJson(o, r)); !s.ok()) {
    Die("writing " + base + ".json", s);
  }
  if (!r.chrome_trace.empty()) {
    if (Status s = WriteFileAtomic(base + ".trace.json", r.chrome_trace);
        !s.ok()) {
      Die("writing " + base + ".trace.json", s);
    }
  }
  std::fflush(stdout);
}

// --workload=all runs each workload in a process of its own, as a caller
// of the benchmark does, so no workload inherits another's heap.
// check_runs.py checks that paper-14d and sharded-4proc labelled the same
// points identically.
int RunAll(const Options& o) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) Die("locating mrcc_bench", Status::IOError("readlink"));
  self[len] = '\0';
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::string name : kWorkloads) {
    std::vector<std::string> args = {
        self, "--workload=" + name, "--seed=" + std::to_string(o.seed),
        "--seconds=" + Number(o.seconds),
        std::string("--trace=") + (o.trace ? "1" : "0"),
        "--out_dir=" + o.out_dir};
    if (o.smoke) args.push_back("--smoke");
    const std::string path = o.out_dir + "/" + name + ".json";
    std::filesystem::remove(path);
    const bool ok = RunProcess(args, "", nullptr);
    Result<std::string> text = ReadFileToString(path);
    Result<JsonValue> record =
        text.ok() ? ParseJson(*text) : Result<JsonValue>(text.status());
    if (!ok || !record.ok()) {
      std::printf("# FAILED: %s did not complete\n", name.c_str());
      ++attempted;
      ++failed;
      continue;
    }
    attempted +=
        static_cast<uint64_t>(JsonNumberOr(record->Find("attempted"), 0));
    failed += static_cast<uint64_t>(JsonNumberOr(record->Find("failed"), 0));
  }
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, "{}").c_str());
  return failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  if (Status s = MakeDirs(o.out_dir); !s.ok()) Die("creating " + o.out_dir, s);
  if (o.workload == "all") return RunAll(o);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    Usage("unknown workload " + o.workload);
  }
  WorkloadResult r = RunWorkload(o, o.workload);
  CheckBenchmarkJson(&r);
  Report(o, r);
  std::printf("%s\n",
              ResultLine(r.failed == 0, r.attempted, r.failed,
                         MetricsJson(r, o.trace ? Group::kPerLayer
                                                : Group::kEndToEnd))
                  .c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mrcc::bench

int main(int argc, char** argv) { return mrcc::bench::Main(argc, argv); }

// Reproduces Fig. 5g-i: scalability in the number of points (50k..250k,
// everything else fixed at the 14d base dataset).
//
// Expected shape: MrCC/LAC/EPCH Quality stays high and flat; MrCC time and
// memory grow linearly with the point count and MrCC stays fastest.
//
// Beyond the paper, this bench also reports the parallel engine's thread
// scaling: MrCC is rerun on the largest dataset of the group at 1, 2, 4
// and 8 threads (override with MRCC_BENCH_THREADS=t1,t2,...) and the
// per-stage timings plus the speedup over the serial run are printed.
// Labels are asserted bit-identical to the serial run at every thread
// count — the engine's determinism contract.
//
// It also compares the data backends (--source=memory|chunked|mmap,
// default: all three) on the largest dataset: the same MrCC run over the
// in-memory buffer, bounded-buffer file reads and an mmap'ed file, each
// swept over the pipelined-scan depths (--read_ahead=D0,D1, default 0,2 =
// synchronous vs. double buffering) with the page cache dropped before
// every file-backed run so the axis measures device reads. Labels are
// asserted identical across every backend × depth and one BenchEntry per
// cell — distinguished by BenchEntry::source / BenchEntry::read_ahead —
// lands in the BenchRecord.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "common/fs.h"
#include "core/mrcc.h"
#include "data/catalog.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "eval/quality.h"

namespace {

void RunThreadScaling(const mrcc::bench::BenchOptions& options) {
  using namespace mrcc;

  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (const char* raw = std::getenv("MRCC_BENCH_THREADS")) {
    thread_counts.clear();
    for (const std::string& token : bench::SplitCsvList(raw)) {
      const int t = std::atoi(token.c_str());
      if (t >= 0) thread_counts.push_back(t);
    }
    if (thread_counts.empty()) return;
  }

  // The largest dataset of the group is where parallelism matters most.
  std::vector<SyntheticConfig> configs = PointsGroupConfigs(options.scale);
  size_t largest = 0;
  for (size_t i = 1; i < configs.size(); ++i) {
    if (configs[i].num_points > configs[largest].num_points) largest = i;
  }
  const LabeledDataset dataset =
      bench::MustGenerate(configs[largest], options.data_dir);

  std::printf("\n== MrCC thread scaling on %s (%zu points x %zu dims) ==\n",
              dataset.name.c_str(), dataset.data.NumPoints(),
              dataset.data.NumDims());
  std::printf("%8s %10s %10s %10s %10s %9s\n", "threads", "tree(s)",
              "search(s)", "label(s)", "total(s)", "speedup");

  std::vector<int> serial_labels;
  double serial_core_seconds = 0.0;
  for (int threads : thread_counts) {
    MrCCParams params;
    params.num_threads = threads;
    Result<MrCCResult> r = MrCC(params).Run(dataset.data);
    if (!r.ok()) {
      std::fprintf(stderr, "MrCC(threads=%d): %s\n", threads,
                   r.status().ToString().c_str());
      return;
    }
    // tree build + β-search: the two stages the paper's O(η·H·d) claim
    // covers and the ones the engine shards.
    const double core_seconds =
        r->stats.tree_build_seconds + r->stats.beta_search_seconds;
    if (serial_labels.empty()) {
      serial_labels = r->clustering.labels;
      serial_core_seconds = core_seconds;
    } else if (r->clustering.labels != serial_labels) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: threads=%d labels differ from "
                   "the serial run\n",
                   threads);
      std::exit(1);
    }
    std::printf("%8d %10.3f %10.3f %10.3f %10.3f %8.2fx\n",
                r->stats.num_threads, r->stats.tree_build_seconds,
                r->stats.beta_search_seconds,
                r->stats.cluster_build_seconds, r->stats.total_seconds,
                core_seconds > 0.0 ? serial_core_seconds / core_seconds
                                   : 0.0);
  }
}

void RunSourceComparison(const mrcc::bench::BenchOptions& options,
                         mrcc::bench::BenchRecorder* recorder) {
  using namespace mrcc;

  std::vector<std::string> sources = {"memory", "chunked", "mmap"};
  if (!options.source.empty()) sources = {options.source};

  std::vector<SyntheticConfig> configs = PointsGroupConfigs(options.scale);
  size_t largest = 0;
  for (size_t i = 1; i < configs.size(); ++i) {
    if (configs[i].num_points > configs[largest].num_points) largest = i;
  }
  const LabeledDataset dataset =
      bench::MustGenerate(configs[largest], options.data_dir);
  const std::string bin_path =
      (options.data_dir.empty() ? std::string("/tmp") : options.data_dir) +
      "/mrcc_scale_points_source.bin";
  if (Status s = SaveBinary(dataset.data, bin_path); !s.ok()) {
    std::fprintf(stderr, "source comparison: %s\n", s.ToString().c_str());
    return;
  }

  std::printf("\n== MrCC data backends on %s (%zu points x %zu dims) ==\n",
              dataset.name.c_str(), dataset.data.NumPoints(),
              dataset.data.NumDims());
  std::printf("%8s %6s %10s %10s %12s %8s %10s\n", "source", "ahead",
              "tree(s)", "total(s)", "chunks", "stalls", "quality");

  std::vector<int> reference_labels;
  for (const std::string& source_name : sources) {
    for (size_t depth : options.read_ahead) {
      MrCCParams params;
      params.read_ahead_chunks = depth;
      Result<MrCCResult> r(Status::Internal("unset"));
      if (source_name == "memory") {
        const MemoryDataSource source(dataset.data);
        r = MrCC(params).Run(source);
      } else if (source_name == "chunked" || source_name == "mmap") {
        // Cold-cache: without this, the second depth's run would read the
        // first one's page cache and the axis would measure nothing.
        if (Status s = DropFileCache(bin_path); !s.ok()) {
          std::fprintf(stderr, "drop cache (best effort): %s\n",
                       s.ToString().c_str());
        }
        if (source_name == "chunked") {
          Result<ChunkedBinaryDataSource> source =
              ChunkedBinaryDataSource::Open(bin_path);
          r = source.ok() ? MrCC(params).Run(*source)
                          : Result<MrCCResult>(source.status());
        } else {
          Result<MmapFileDataSource> source =
              MmapFileDataSource::Open(bin_path);
          r = source.ok() ? MrCC(params).Run(*source)
                          : Result<MrCCResult>(source.status());
        }
      } else {
        std::fprintf(stderr, "unknown --source=%s (memory|chunked|mmap)\n",
                     source_name.c_str());
        std::exit(2);
      }

      BenchEntry entry;
      entry.method = "MrCC";
      entry.dataset = dataset.name;
      entry.source = source_name;
      entry.read_ahead = static_cast<int64_t>(depth);
      if (!r.ok()) {
        entry.error = r.status().ToString();
        std::fprintf(stderr, "MrCC(source=%s, read_ahead=%zu): %s\n",
                     source_name.c_str(), depth, entry.error.c_str());
        recorder->Add(entry);
        continue;
      }
      if (reference_labels.empty()) {
        reference_labels = r->clustering.labels;
      } else if (r->clustering.labels != reference_labels) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: source=%s read_ahead=%zu "
                     "labels differ\n",
                     source_name.c_str(), depth);
        std::exit(1);
      }
      const QualityReport quality =
          EvaluateClustering(r->clustering, dataset.truth);
      entry.completed = true;
      entry.seconds = r->stats.total_seconds;
      entry.quality = quality.quality;
      entry.subspace_quality = quality.subspace_quality;
      entry.clusters_found = r->clustering.NumClusters();
      recorder->Add(entry);
      std::printf("%8s %6zu %10.3f %10.3f %12llu %8llu %10.3f\n",
                  source_name.c_str(), depth, r->stats.tree_build_seconds,
                  r->stats.total_seconds,
                  static_cast<unsigned long long>(r->stats.chunks_scanned),
                  static_cast<unsigned long long>(r->stats.prefetch_stalls),
                  quality.quality);
    }
  }
  std::remove(bin_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrcc::bench;
  const BenchOptions options = ParseOptions(argc, argv);
  BenchRecorder recorder("scale_points", options);
  PrintHeader("points scaling (50k..250k)", "Fig. 5g-i", options);
  RunMatrix("scale_points", mrcc::PointsGroupConfigs(options.scale), options,
            &recorder);
  RunThreadScaling(options);
  RunSourceComparison(options, &recorder);
  return recorder.Finish();
}

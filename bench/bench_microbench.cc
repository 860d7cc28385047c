// Micro-benchmarks backing the paper's §III complexity claims and the
// DESIGN.md ablations (google-benchmark):
//
//   - Counting-tree construction: O(eta * H * d) — swept in eta, d and H;
//     and the batch build (BuildTree) of paper-14d's million points at
//     1, 2 and 4 workers.
//   - Face-only Laplacian convolution: O(d) per cell, versus the full
//     order-3 mask at O(3^d) (the ablation the paper argues about when
//     choosing the face-only mask), both through the engine's level
//     convolution.
//   - Binomial critical value: log-space tail inversion cost.
//   - Shard artifacts: serializing one shard-sized tree, its footer
//     checksum, and ParseTree and ValidateInvariants over it (the write
//     and load cost a multi-process build pays per shard; DESIGN.md §16).
//   - Window fold: a snapshot's fold of nine flushed generations, one
//     k-way merge and one layout on 1 or 2 threads (DESIGN.md §14); and
//     the merger's fold of four shard trees of paper-14d (DESIGN.md §16).
//   - Full MrCC runs at increasing eta (end-to-end linearity).

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/fs.h"
#include "common/stats.h"
#include "core/counting_tree.h"
#include "core/laplacian_mask.h"
#include "core/mrcc.h"
#include "core/tree_io.h"
#include "data/catalog.h"
#include "data/data_source.h"
#include "data/generator.h"
#include "dist/shard_io.h"

namespace {

using namespace mrcc;

LabeledDataset MakeData(size_t n, size_t d, uint64_t seed = 71) {
  SyntheticConfig cfg;
  cfg.num_points = n;
  cfg.num_dims = d;
  cfg.num_clusters = 5;
  cfg.min_cluster_dims = d > 3 ? d - 3 : 1;
  cfg.max_cluster_dims = d - 1;
  cfg.seed = seed;
  Result<LabeledDataset> r = GenerateSynthetic(cfg);
  MRCC_CHECK(r.ok());
  return std::move(r).value();
}

void BM_TreeBuildPoints(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const LabeledDataset ds = MakeData(n, 14);
  for (auto _ : state) {
    auto tree = CountingTree::Build(ds.data, 4);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
// Up to 2^20 points: past a few MB of tree the build's memory access
// pattern, not its instruction count, sets the cost, and the small sizes
// fit in cache.
BENCHMARK(BM_TreeBuildPoints)
    ->RangeMultiplier(4)
    ->Range(4096, 1 << 20)
    ->Unit(benchmark::kMillisecond);

// The batch engine's tree build (MrCC::Run's phase 1) over paper-14d's
// design at a million points: Arg workers scan their slices, the records
// are partitioned by key space, sorted per range and laid out once.
void BM_TreeBuildThreads(benchmark::State& state) {
  static const LabeledDataset* paper = [] {
    SyntheticConfig cfg = Base14dConfig();
    cfg.num_points = 1'000'000;
    Result<LabeledDataset> r = GenerateSynthetic(cfg);
    MRCC_CHECK(r.ok());
    return new LabeledDataset(std::move(r).value());
  }();
  const int threads = static_cast<int>(state.range(0));
  const MemoryDataSource source(paper->data);
  MrCCParams params;
  const size_t chunk = ChunkPointsFor(params, source.NumDims(), threads);
  for (auto _ : state) {
    MrCCStats stats;
    Result<CountingTree> tree =
        BuildTree(source, 0, source.NumPoints(), params, threads, chunk,
                  &stats);
    MRCC_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree->total_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.NumPoints()));
}
BENCHMARK(BM_TreeBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TreeBuildDims(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const LabeledDataset ds = MakeData(10000, d);
  for (auto _ : state) {
    auto tree = CountingTree::Build(ds.data, 4);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeBuildDims)->DenseRange(5, 30, 5);

void BM_TreeBuildResolutions(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  const LabeledDataset ds = MakeData(10000, 10);
  for (auto _ : state) {
    auto tree = CountingTree::Build(ds.data, h);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeBuildResolutions)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Ablation: face-only mask is O(d) per cell; the full order-3 mask is
// O(3^d). The paper picks the face-only variant for exactly this reason.
// Both run as the β-search runs them: one level's sorted keys and one
// merge-join per positive mask offset (LaplacianConvolveLevel), one
// thread. Arguments: d, then 0 (face) or 1 (full). Items are cells.
void BM_MaskConvolveLevel(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const bool full_mask = state.range(1) == 1;
  const LabeledDataset ds = MakeData(5000, d);
  auto tree = CountingTree::Build(ds.data, 4);
  const CountingTree::LevelView level = tree->Level(2);
  ThreadPool pool(1);
  std::vector<int64_t> conv(level.num_cells());
  for (auto _ : state) {
    const LevelKeys keys(level);
    LaplacianConvolveLevel(keys, full_mask, pool, conv.data());
    benchmark::DoNotOptimize(conv.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(level.num_cells()));
}
BENCHMARK(BM_MaskConvolveLevel)
    ->ArgNames({"d", "full"})
    ->ArgsProduct({{2, 4, 6, 8}, {0, 1}});

// ---- Data layout (DESIGN.md §12): SoA arena sweeps versus the pointer
// walks they replaced, and the per-level sorted keys the convolution
// joins over.

// Whole-level convolution — the β-search hot path: sort the level's keys,
// then one merge-join per axis (simd-seeded center terms), one thread.
void BM_LayoutFaceConvolveLevel(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const LabeledDataset ds = MakeData(20000, d);
  auto tree = CountingTree::Build(ds.data, 4);
  const CountingTree::LevelView level = tree->Level(3);
  ThreadPool pool(1);
  std::vector<int64_t> conv(level.num_cells());
  for (auto _ : state) {
    const LevelKeys keys(level);
    LaplacianConvolveLevel(keys, /*full_mask=*/false, pool, conv.data());
    benchmark::DoNotOptimize(conv.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(level.num_cells()));
}
BENCHMARK(BM_LayoutFaceConvolveLevel)->Arg(8)->Arg(14)->Arg(30);

// Sorted-key point lookups alone: binary search plus exact coordinate
// compare, what the binomial test and box growth pay per probe.
void BM_LayoutLevelKeysFind(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const LabeledDataset ds = MakeData(20000, d);
  auto tree = CountingTree::Build(ds.data, 4);
  const CountingTree::LevelView level = tree->Level(3);
  const LevelKeys keys(level);
  std::vector<uint64_t> coords(d);
  for (auto _ : state) {
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      level.CoordsInto(i, coords.data());
      benchmark::DoNotOptimize(keys.Find(coords.data()));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(level.num_cells()));
}
BENCHMARK(BM_LayoutLevelKeysFind)->Arg(8)->Arg(14)->Arg(30);

// Streaming one packed attribute array (the argmax sweep's access
// pattern): how fast the SoA layout lets a level be scanned.
void BM_LayoutLevelCountScan(benchmark::State& state) {
  const LabeledDataset ds = MakeData(50000, 10);
  auto tree = CountingTree::Build(ds.data, 4);
  const CountingTree::LevelView level = tree->Level(3);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint32_t n : level.counts()) sum += n;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(level.num_cells()));
}
BENCHMARK(BM_LayoutLevelCountScan);

// ---- Shard-artifact load (DESIGN.md §16): what the merger pays per byte
// of a shard. One shard-sized tree: a quarter of paper-14d's million
// points, at H = 4 like the pipeline's default. Items are cells.

struct ShardFixture {
  std::optional<CountingTree> tree;
  std::string artifact;
  size_t cells = 0;
};

// Built once per d: google-benchmark calls each function several times.
const ShardFixture& ShardFor(size_t d) {
  static std::map<size_t, ShardFixture> cache;
  auto [it, inserted] = cache.try_emplace(d);
  ShardFixture& shard = it->second;
  if (inserted) {
    const LabeledDataset ds = MakeData(250000, d);
    Result<CountingTree> tree = CountingTree::Build(ds.data, 4);
    MRCC_CHECK(tree.ok());
    for (int h = 1; h < tree->num_resolutions(); ++h) {
      shard.cells += tree->NumCellsAtLevel(h);
    }
    const uint64_t n = ds.data.NumPoints();
    shard.artifact =
        dist::SerializeShardArtifact(*tree, dist::ShardMeta{0, n, n});
    shard.tree = std::move(*tree);
  }
  return shard;
}

// What a worker does between building its tree and publishing it:
// the tree stream, the footer and its checksum, in one buffer.
void BM_SerializeShardArtifact(benchmark::State& state) {
  const ShardFixture& shard = ShardFor(static_cast<size_t>(state.range(0)));
  const uint64_t n = shard.tree->total_points();
  for (auto _ : state) {
    std::string bytes =
        dist::SerializeShardArtifact(*shard.tree, dist::ShardMeta{0, n, n});
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.cells));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.artifact.size()));
}
BENCHMARK(BM_SerializeShardArtifact)
    ->Arg(14)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// The footer checksum alone, over the whole artifact: paid once by the
// writer and once by every load.
void BM_ShardChecksum(benchmark::State& state) {
  const ShardFixture& shard = ShardFor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WordChecksum(shard.artifact.data(), shard.artifact.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.artifact.size()));
}
BENCHMARK(BM_ShardChecksum)
    ->Arg(14)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// Footer checks, checksum, in-place ParseTree and ValidateInvariants:
// everything ReadShardArtifact does after reading the file.
void BM_ParseShardArtifact(benchmark::State& state) {
  const ShardFixture& shard = ShardFor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<dist::ShardArtifact> loaded =
        dist::ParseShardArtifact(shard.artifact, "bench");
    MRCC_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->tree.total_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.cells));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.artifact.size()));
}
BENCHMARK(BM_ParseShardArtifact)
    ->Arg(14)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// The structural walk alone, over the loaded tree.
void BM_ValidateInvariants(benchmark::State& state) {
  const ShardFixture& shard = ShardFor(static_cast<size_t>(state.range(0)));
  Result<dist::ShardArtifact> loaded =
      dist::ParseShardArtifact(shard.artifact, "bench");
  MRCC_CHECK(loaded.ok());
  for (auto _ : state) {
    const Status v = loaded->tree.ValidateInvariants();
    MRCC_CHECK(v.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(shard.cells));
}
BENCHMARK(BM_ValidateInvariants)
    ->Arg(14)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// ---- Window fold (DESIGN.md §14): what a sliding-window snapshot runs.
// Nine 16,384-point generations of the bench's 14-d design at H = 4, as
// in mrcc_bench's stream-window workload, each Insert()ed and flushed
// (a key order, never laid out); one CountingTree::Fold merges them and
// lays the window out on a pool of `threads` threads. Items are source
// cells.

struct GenerationFixture {
  std::vector<CountingTree> generations;
  size_t cells = 0;
};

const GenerationFixture& Generations() {
  static const GenerationFixture fixture = [] {
    constexpr size_t kGenerations = 9;
    constexpr size_t kGenerationPoints = 16384;
    const LabeledDataset ds = MakeData(kGenerations * kGenerationPoints, 14);
    GenerationFixture f;
    for (size_t g = 0; g < kGenerations; ++g) {
      Result<CountingTree> tree = CountingTree::Empty(14, 4);
      MRCC_CHECK(tree.ok());
      for (size_t i = g * kGenerationPoints; i < (g + 1) * kGenerationPoints;
           ++i) {
        MRCC_CHECK(tree->Insert(ds.data.Point(i)).ok());
      }
      tree->Flush();
      // The generation's own cells: the fold of it alone.
      const CountingTree* part[] = {&*tree};
      Result<CountingTree> alone = CountingTree::Fold(part, nullptr, nullptr);
      MRCC_CHECK(alone.ok());
      for (int h = 1; h < alone->num_resolutions(); ++h) {
        f.cells += alone->NumCellsAtLevel(h);
      }
      f.generations.push_back(std::move(*tree));
    }
    return f;
  }();
  return fixture;
}

void BM_FoldGenerations(benchmark::State& state) {
  const GenerationFixture& f = Generations();
  ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<const CountingTree*> parts;
  for (const CountingTree& generation : f.generations) {
    parts.push_back(&generation);
  }
  for (auto _ : state) {
    MergeTreeStats stats;
    Result<CountingTree> window = CountingTree::Fold(parts, &pool, &stats);
    MRCC_CHECK(window.ok());
    benchmark::DoNotOptimize(window->total_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.cells));
}
BENCHMARK(BM_FoldGenerations)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// ---- Artifact fold (DESIGN.md §16): the merger's fold of paper-14d's
// four shard trees — the quarters of one million 14-d points at H = 4 —
// as MergeShardTrees runs it: each artifact's tree bytes parsed and
// flushed into its key order, then one Fold on a pool of T threads.
// The parses are not timed (the loads' own cost, BM_ParseShardArtifact's
// share); the flushes and the fold are. Items are source cells.

struct ArtifactFoldFixture {
  std::vector<std::string> artifacts;  // Each shard's tree bytes.
  size_t cells = 0;
};

const ArtifactFoldFixture& ArtifactFold() {
  static const ArtifactFoldFixture fixture = [] {
    constexpr size_t kShards = 4;
    constexpr size_t kShardPoints = 250000;
    const LabeledDataset ds = MakeData(kShards * kShardPoints, 14);
    ArtifactFoldFixture f;
    for (size_t s = 0; s < kShards; ++s) {
      Dataset slice(0, ds.data.NumDims());
      for (size_t i = s * kShardPoints; i < (s + 1) * kShardPoints; ++i) {
        slice.AppendPoint(ds.data.Point(i));
      }
      Result<CountingTree> tree = CountingTree::Build(slice, 4);
      MRCC_CHECK(tree.ok());
      for (int h = 1; h < tree->num_resolutions(); ++h) {
        f.cells += tree->NumCellsAtLevel(h);
      }
      f.artifacts.push_back(SerializeTree(*tree));
    }
    return f;
  }();
  return fixture;
}

void BM_FoldShardArtifacts(benchmark::State& state) {
  const ArtifactFoldFixture& f = ArtifactFold();
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<CountingTree> shards;
    for (const std::string& bytes : f.artifacts) {
      state.PauseTiming();
      Result<CountingTree> shard = ParseTree(bytes, "bench");
      MRCC_CHECK(shard.ok());
      state.ResumeTiming();
      shard->Flush();
      shards.push_back(std::move(*shard));
    }
    std::vector<const CountingTree*> parts;
    for (const CountingTree& shard : shards) parts.push_back(&shard);
    Result<CountingTree> folded = CountingTree::Fold(parts, &pool, nullptr);
    MRCC_CHECK(folded.ok());
    benchmark::DoNotOptimize(folded->total_points());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.cells));
}
BENCHMARK(BM_FoldShardArtifacts)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_BinomialCriticalValue(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinomialCriticalValue(n, 1.0 / 6.0, 1e-10));
  }
}
BENCHMARK(BM_BinomialCriticalValue)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_MrCCEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const LabeledDataset ds = MakeData(n, 14);
  MrCC method;
  for (auto _ : state) {
    auto result = method.Run(ds.data);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MrCCEndToEnd)->RangeMultiplier(2)->Range(8000, 32000);

// Forwards the console output unchanged while mirroring every per-run
// measurement (aggregates excluded) into the binary's BenchRecord, so the
// microbenches feed the same --json_out / bench_compare.py pipeline as
// the figure benches. `seconds` is real time per iteration.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(mrcc::bench::BenchRecorder* recorder)
      : recorder_(recorder) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      RunMeasurement m;
      m.method = run.benchmark_name();
      m.dataset = "microbench";
      m.completed = !run.error_occurred;
      m.error = run.error_message;
      m.seconds = run.iterations > 0
                      ? run.real_accumulated_time /
                            static_cast<double>(run.iterations)
                      : run.real_accumulated_time;
      recorder_->Add(m);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  mrcc::bench::BenchRecorder* recorder_;
};

}  // namespace

// Custom BENCHMARK_MAIN: the harness flags (--json_out= etc.) are parsed
// and stripped first so google-benchmark only sees its own flags.
int main(int argc, char** argv) {
  std::vector<char*> our_args{argv[0]};
  std::vector<char*> gbench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool ours = std::strncmp(argv[i], "--json_out=", 11) == 0 ||
                      std::strncmp(argv[i], "--trace_out=", 12) == 0 ||
                      std::strncmp(argv[i], "--scale=", 8) == 0;
    (ours ? our_args : gbench_args).push_back(argv[i]);
  }
  const mrcc::bench::BenchOptions options = mrcc::bench::ParseOptions(
      static_cast<int>(our_args.size()), our_args.data());
  mrcc::bench::BenchRecorder recorder("microbench", options);

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data())) {
    return 1;
  }
  RecordingReporter reporter(&recorder);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return recorder.Finish();
}

// Bit-identity regression against the pre-SoA implementation.
//
// The golden hashes below were produced by the per-node AoS storage this
// repo shipped before the level-contiguous arena refactor (same datasets,
// same parameters, serial run). The SoA arenas, the SIMD convolutions and
// the packed serialization are required to reproduce the old results
// *exactly* — labels, cluster subspaces, β-cluster geometry, and the
// serialized tree bytes — so these hashes must never change. They hold in
// both SIMD and scalar (-DMRCC_SIMD=OFF) builds and at any thread count
// (DeterminismTest covers the thread sweep; this test pins the serial
// result to history).
//
// If a change legitimately alters results (an algorithmic change, not a
// storage change), regenerate the table and say so loudly in the commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/mrcc.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "dist/sharded_build.h"

namespace mrcc {
namespace {

uint64_t FnvMix(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// FNV-1a over every result field that the determinism contract covers.
uint64_t HashResult(const MrCCResult& r) {
  uint64_t h = 1469598103934665603ull;
  h = FnvMix(h, r.clustering.labels.data(),
             r.clustering.labels.size() * sizeof(int));
  for (const ClusterInfo& c : r.clustering.clusters) {
    for (bool b : c.relevant_axes) {
      const unsigned char v = b ? 1 : 0;
      h = FnvMix(h, &v, 1);
    }
  }
  h = FnvMix(h, r.beta_to_cluster.data(),
             r.beta_to_cluster.size() * sizeof(int));
  for (const BetaCluster& b : r.beta_clusters) {
    h = FnvMix(h, b.lower.data(), b.lower.size() * sizeof(double));
    h = FnvMix(h, b.upper.data(), b.upper.size() * sizeof(double));
    h = FnvMix(h, b.relevance.data(), b.relevance.size() * sizeof(double));
    for (bool v : b.relevant) {
      const unsigned char u = v ? 1 : 0;
      h = FnvMix(h, &u, 1);
    }
    h = FnvMix(h, &b.level, sizeof(b.level));
    h = FnvMix(h, &b.center_count, sizeof(b.center_count));
  }
  return h;
}

// FNV-1a over the exact bytes SaveTree writes — the serialized format is
// part of the bit-identity contract (old files must load, new files must
// match old ones byte for byte).
uint64_t HashTreeBytes(const CountingTree& tree, const std::string& path) {
  EXPECT_TRUE(SaveTree(tree, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  std::remove(path.c_str());
  return FnvMix(1469598103934665603ull, bytes.data(), bytes.size());
}

LabeledDataset Clustered(size_t n, size_t dims, size_t k, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.name = "golden";
  cfg.num_points = n;
  cfg.num_dims = dims;
  cfg.num_clusters = k;
  cfg.noise_fraction = 0.15;
  cfg.min_cluster_dims = dims > 3 ? dims - 3 : 1;
  cfg.max_cluster_dims = dims > 1 ? dims - 1 : 1;
  cfg.seed = seed;
  Result<LabeledDataset> r = GenerateSynthetic(cfg);
  MRCC_CHECK(r.ok());  // Golden inputs must exist before hashing anything.
  return std::move(r).value();
}

struct GoldenCase {
  size_t n, d, k;
  uint64_t seed;
  int resolutions;
  uint64_t result_hash;
  uint64_t tree_hash;
};

// Captured from the pre-refactor implementation; see the file comment.
const GoldenCase kGolden[] = {
    {4000, 8, 3, 7, 4, 0xc461134eda1bd827ull, 0xac99857a9b6b92baull},
    {6000, 8, 3, 19, 4, 0x26a039c86150ea7bull, 0x94711b42f04fe82eull},
    {6000, 8, 3, 101, 4, 0x57678ac3108802c4ull, 0x0916bfef2319d94cull},
    {3000, 14, 5, 71, 4, 0x1a6460f2a9e9ff14ull, 0x8783416cdc20cdd8ull},
    {5000, 6, 2, 13, 5, 0x5ed934b9c863aeceull, 0x0c30d1ffeaeccf83ull},
};

TEST(GoldenRegressionTest, ResultsAndTreeBytesMatchPreRefactorRuns) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " seed=" + std::to_string(c.seed));
    LabeledDataset ds = Clustered(c.n, c.d, c.k, c.seed);

    MrCCParams params;
    params.num_resolutions = c.resolutions;
    params.num_threads = 1;
    Result<MrCCResult> r = MrCC(params).Run(ds.data);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(HashResult(*r), c.result_hash);

    Result<CountingTree> tree = CountingTree::Build(ds.data, c.resolutions);
    ASSERT_TRUE(tree.ok());
    const std::string path =
        ::testing::TempDir() + "mrcc_golden_" + std::to_string(c.seed) + ".bin";
    EXPECT_EQ(HashTreeBytes(*tree, path), c.tree_hash);
  }
}

// The out-of-core backends and every chunk size must reproduce the same
// pre-refactor hashes: streaming is a storage change, not an algorithmic
// one, so the pinned history covers it too.
TEST(GoldenRegressionTest, OutOfCoreBuildsMatchThePinnedHashes) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " seed=" + std::to_string(c.seed));
    LabeledDataset ds = Clustered(c.n, c.d, c.k, c.seed);
    const std::string bin_path = ::testing::TempDir() + "mrcc_golden_src_" +
                                 std::to_string(c.seed) + ".bin";
    ASSERT_TRUE(SaveBinary(ds.data, bin_path).ok());

    MrCCParams params;
    params.num_resolutions = c.resolutions;
    params.num_threads = 1;

    for (const size_t chunk : {size_t{0}, size_t{1}, size_t{1009}}) {
      SCOPED_TRACE("chunk_points=" + std::to_string(chunk));
      params.chunk_points = chunk;

      Result<ChunkedBinaryDataSource> chunked =
          ChunkedBinaryDataSource::Open(bin_path);
      ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
      Result<MrCCResult> r = MrCC(params).Run(*chunked);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(HashResult(*r), c.result_hash);

      Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      r = MrCC(params).Run(*mapped);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(HashResult(*r), c.result_hash);
    }
    std::remove(bin_path.c_str());
  }
}

// The pipelined scans must also reproduce the pinned history: read-ahead
// moves wall time, never bits, at every depth × backend × thread count.
// (Depth 0 is the synchronous path; 8 out-runs the consumer and parks the
// reader on a full ring.)
TEST(GoldenRegressionTest, ReadAheadDepthsMatchThePinnedHashes) {
  for (const GoldenCase& c : {kGolden[0], kGolden[3]}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " seed=" + std::to_string(c.seed));
    LabeledDataset ds = Clustered(c.n, c.d, c.k, c.seed);
    const std::string bin_path = ::testing::TempDir() + "mrcc_golden_ra_" +
                                 std::to_string(c.seed) + ".bin";
    ASSERT_TRUE(SaveBinary(ds.data, bin_path).ok());

    MrCCParams params;
    params.num_resolutions = c.resolutions;
    params.chunk_points = 509;  // Prime, so chunks straddle shard seams.

    for (const int threads : {1, 3}) {
      params.num_threads = threads;
      for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " read_ahead=" + std::to_string(depth));
        params.read_ahead_chunks = depth;

        Result<MrCCResult> r = MrCC(params).Run(ds.data);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(HashResult(*r), c.result_hash);

        Result<ChunkedBinaryDataSource> chunked =
            ChunkedBinaryDataSource::Open(bin_path);
        ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
        r = MrCC(params).Run(*chunked);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(HashResult(*r), c.result_hash);

        Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        r = MrCC(params).Run(*mapped);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(HashResult(*r), c.result_hash);
      }
    }
    std::remove(bin_path.c_str());
  }
}

// The multi-process sharded pipeline must also reproduce the pinned
// history: partitioned worker trees folded left-to-right equal the serial
// tree byte for byte, and the merged search produces the exact pinned
// result hash — including after a crash-shaped gap (one shard artifact
// deleted and recovered by the merger's rebuild).
TEST(GoldenRegressionTest, ShardedBuildsMatchThePinnedHashes) {
  for (const GoldenCase& c : {kGolden[0], kGolden[4]}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                 " seed=" + std::to_string(c.seed));
    LabeledDataset ds = Clustered(c.n, c.d, c.k, c.seed);
    const std::string dir = ::testing::TempDir() + "mrcc_golden_sharded_" +
                            std::to_string(c.seed);
    (void)std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
    const std::string bin_path = dir + "/points.bin";
    ASSERT_TRUE(SaveBinary(ds.data, bin_path).ok());

    dist::ShardedBuildOptions options;
    options.dataset_path = bin_path;
    options.work_dir = dir;
    options.num_shards = 3;
    options.params.num_resolutions = c.resolutions;
    options.params.num_threads = 1;

    Result<MrCCResult> r = dist::RunShardedBuild(options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(HashResult(*r), c.result_hash);

    Result<dist::BuildManifest> manifest =
        dist::LoadManifest(dist::ManifestPath(dir));
    ASSERT_TRUE(manifest.ok());
    MrCCStats merged_stats;
    Result<CountingTree> merged =
        dist::MergeShardTrees(options, *manifest, &merged_stats);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    const std::string tree_path = dir + "/merged.bin";
    EXPECT_EQ(HashTreeBytes(*merged, tree_path), c.tree_hash);

    // Shard-loss recovery keeps the pinned hash: delete one artifact and
    // re-merge — the rebuilt partition folds to the identical result.
    ASSERT_EQ(std::remove(dist::ShardArtifactPath(dir, 1).c_str()), 0);
    r = dist::MergeShards(options, *manifest);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(HashResult(*r), c.result_hash);

    (void)std::system(("rm -rf " + dir).c_str());
  }
}

}  // namespace
}  // namespace mrcc

// Out-of-core build determinism: the chunked scan path must be invisible
// in the results. Whatever the chunk size (1, a prime that straddles every
// interesting boundary, the 4096 default, or the whole dataset), whatever
// the backend (memory, per-point file reads, block reads, mmap), and
// whatever the thread count, MrCC::Run produces bit-identical labels,
// β-clusters and stats-visible cluster geometry. This is the executable
// form of the ScanChunks contract in data/data_source.h: chunks arrive in
// order and cover the range exactly once.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

/// Structural equality over everything the determinism contract covers.
void ExpectSameResult(const MrCCResult& a, const MrCCResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.beta_to_cluster, b.beta_to_cluster);
  ASSERT_EQ(a.beta_clusters.size(), b.beta_clusters.size());
  for (size_t i = 0; i < a.beta_clusters.size(); ++i) {
    EXPECT_EQ(a.beta_clusters[i].lower, b.beta_clusters[i].lower);
    EXPECT_EQ(a.beta_clusters[i].upper, b.beta_clusters[i].upper);
    EXPECT_EQ(a.beta_clusters[i].relevant, b.beta_clusters[i].relevant);
    EXPECT_EQ(a.beta_clusters[i].level, b.beta_clusters[i].level);
    EXPECT_EQ(a.beta_clusters[i].center_count, b.beta_clusters[i].center_count);
  }
  ASSERT_EQ(a.clustering.clusters.size(), b.clustering.clusters.size());
  for (size_t c = 0; c < a.clustering.clusters.size(); ++c) {
    EXPECT_EQ(a.clustering.clusters[c].relevant_axes,
              b.clustering.clusters[c].relevant_axes);
  }
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = testing::SmallClustered(3000, 6, 2, 29).data;
    bin_path_ = testing::UniqueTempPath("mrcc_out_of_core") + ".bin";
    ASSERT_TRUE(SaveBinary(data_, bin_path_).ok());
  }
  void TearDown() override {
    fp::DisarmAll();
    std::remove(bin_path_.c_str());
  }

  Dataset data_;
  std::string bin_path_;
};

TEST_F(OutOfCoreTest, ChunkSizeNeverChangesResults) {
  MrCCParams params;
  params.num_threads = 2;
  const Result<MrCCResult> baseline = MrCC(params).Run(data_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->clustering.NumClusters(), 0u);

  const size_t sizes[] = {1, 7, 4096, data_.NumPoints()};
  for (size_t chunk : sizes) {
    params.chunk_points = chunk;
    const Result<MrCCResult> r = MrCC(params).Run(data_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameResult(*r, *baseline, "chunk_points=" + std::to_string(chunk));
    EXPECT_EQ(r->stats.chunk_points, chunk);
    EXPECT_GE(r->stats.chunks_scanned,
              (data_.NumPoints() + chunk - 1) / chunk);
  }
}

TEST_F(OutOfCoreTest, EveryBackendMatchesTheInMemoryBuild) {
  MrCCParams params;
  params.chunk_points = 512;
  const Result<MrCCResult> baseline = MrCC(params).Run(data_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (int threads : {1, 2, 4}) {
    params.num_threads = threads;
    const std::string tag = " threads=" + std::to_string(threads);

    Result<ChunkedBinaryDataSource> chunked =
        ChunkedBinaryDataSource::Open(bin_path_);
    ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
    Result<MrCCResult> r = MrCC(params).Run(*chunked);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameResult(*r, *baseline, "chunked" + tag);

    // Tiny blocks (one pread per two points) must not show either.
    MrCCParams tiny = params;
    tiny.chunk_points = 2;
    r = MrCC(tiny).Run(*chunked);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameResult(*r, *baseline, "chunked, 2-point blocks" + tag);

    Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->using_mmap());
    r = MrCC(params).Run(*mapped);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameResult(*r, *baseline, "mmap" + tag);
  }
}

TEST_F(OutOfCoreTest, MmapFallbackIsInvisibleInResults) {
  MrCCParams params;
  const Result<MrCCResult> baseline = MrCC(params).Run(data_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  fp::ScopedArm arm("source.mmap");  // Kernel refuses the mapping.
  Result<MmapFileDataSource> source = MmapFileDataSource::Open(bin_path_);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_FALSE(source->using_mmap());
  EXPECT_GT(fp::HitCount("source.mmap"), 0u);

  const Result<MrCCResult> r = MrCC(params).Run(*source);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameResult(*r, *baseline, "mmap-fallback");
  EXPECT_FALSE(r->stats.degraded);
}

TEST_F(OutOfCoreTest, SanitizationStraddlingAChunkEdgeIsChunkInvariant) {
  // Poison a run of points (indices 6, 7, 8) so a chunk size of 7 puts
  // the bad run on both sides of a chunk boundary. Skip and clamp must
  // act per point, never per chunk.
  Dataset poisoned = data_;
  for (size_t i : {size_t{6}, size_t{7}, size_t{8}}) {
    poisoned(i, 0) = std::numeric_limits<double>::quiet_NaN();
    poisoned(i, 1) = 1.75;  // Clamps to just under 1.
  }

  for (BadPointPolicy policy : {BadPointPolicy::kSkip, BadPointPolicy::kClamp}) {
    MrCCParams params;
    params.bad_point_policy = policy;
    const Result<MrCCResult> baseline = MrCC(params).Run(poisoned);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    for (size_t chunk : {size_t{1}, size_t{7}, poisoned.NumPoints()}) {
      params.chunk_points = chunk;
      const Result<MrCCResult> r = MrCC(params).Run(poisoned);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameResult(*r, *baseline,
                       "policy=" + std::string(BadPointPolicyName(policy)) +
                           " chunk=" + std::to_string(chunk));
      EXPECT_EQ(r->stats.points_skipped, baseline->stats.points_skipped);
      EXPECT_EQ(r->stats.points_clamped, baseline->stats.points_clamped);
    }
  }
}

TEST_F(OutOfCoreTest, MemoryBudgetShrinksChunksWithoutChangingResults) {
  MrCCParams params;
  params.num_threads = 2;
  const Result<MrCCResult> baseline = MrCC(params).Run(data_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // A budget far below the raw input size: the automatic chunk size must
  // shrink below the 4096 default so both shards' buffers fit in half of
  // it, and the build must still match bit for bit.
  params.budget.max_memory_bytes = 64 * 1024;
  const Result<MrCCResult> r = MrCC(params).Run(data_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LT(r->stats.chunk_points, 4096u);
  EXPECT_GE(r->stats.chunk_points, 1u);
  EXPECT_GT(r->stats.chunks_scanned, baseline->stats.chunks_scanned);
  EXPECT_LE(r->stats.resident_point_bound,
            params.budget.max_memory_bytes / (2 * data_.NumDims() *
                                              sizeof(double)));
  EXPECT_EQ(r->clustering.labels, baseline->clustering.labels);
}

TEST_F(OutOfCoreTest, ChunkReadFaultFailsCleanlyOnEveryBackend) {
  fp::ScopedArm arm("source.chunk.read");
  MrCCParams params;

  const MemoryDataSource memory(data_);
  Result<MrCCResult> r = MrCC(params).Run(memory);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);

  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path_);
  ASSERT_TRUE(mapped.ok());
  r = MrCC(params).Run(*mapped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace mrcc

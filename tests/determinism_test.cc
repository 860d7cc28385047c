// The parallel engine's central contract: every num_threads produces a
// bit-identical MrCCResult, and a binary-file source produces the same
// result as the in-memory dataset it was written from.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

// Exact structural equality of two runs; EXPECT granularity so a failure
// names the diverging field.
void ExpectIdenticalResults(const MrCCResult& a, const MrCCResult& b,
                            const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  ASSERT_EQ(a.clustering.clusters.size(), b.clustering.clusters.size());
  for (size_t k = 0; k < a.clustering.clusters.size(); ++k) {
    EXPECT_EQ(a.clustering.clusters[k].relevant_axes,
              b.clustering.clusters[k].relevant_axes)
        << "cluster " << k;
  }
  EXPECT_EQ(a.beta_to_cluster, b.beta_to_cluster);
  ASSERT_EQ(a.beta_clusters.size(), b.beta_clusters.size());
  for (size_t k = 0; k < a.beta_clusters.size(); ++k) {
    const BetaCluster& x = a.beta_clusters[k];
    const BetaCluster& y = b.beta_clusters[k];
    EXPECT_EQ(x.lower, y.lower) << "beta " << k;
    EXPECT_EQ(x.upper, y.upper) << "beta " << k;
    EXPECT_EQ(x.relevant, y.relevant) << "beta " << k;
    EXPECT_EQ(x.relevance, y.relevance) << "beta " << k;
    EXPECT_EQ(x.level, y.level) << "beta " << k;
    EXPECT_EQ(x.center_count, y.center_count) << "beta " << k;
  }
}

TEST(DeterminismTest, ThreadCountDoesNotChangeTheResult) {
  // Several seeds so more than one tree shape / β-cluster layout is
  // exercised; 1 vs 2 vs 8 threads covers the serial path, the minimal
  // sharding and an oversubscribed pool (the host may have one core).
  for (uint64_t seed : {7u, 19u, 101u}) {
    const LabeledDataset dataset = testing::SmallClustered(
        /*n=*/6000, /*dims=*/8, /*k=*/3, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    MrCCParams params;
    params.num_threads = 1;
    Result<MrCCResult> serial = MrCC(params).Run(dataset.data);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->stats.num_threads, 1);

    for (int threads : {2, 8}) {
      params.num_threads = threads;
      Result<MrCCResult> parallel = MrCC(params).Run(dataset.data);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->stats.num_threads, threads);
      ExpectIdenticalResults(*serial, *parallel,
                             "threads=" + std::to_string(threads));
    }
  }
}

TEST(DeterminismTest, HardwareConcurrencyMatchesSerial) {
  const LabeledDataset dataset = testing::SmallClustered(4000, 8, 3, 7);
  MrCCParams params;
  params.num_threads = 1;
  Result<MrCCResult> serial = MrCC(params).Run(dataset.data);
  ASSERT_TRUE(serial.ok());

  params.num_threads = 0;  // 0 = hardware concurrency.
  Result<MrCCResult> automatic = MrCC(params).Run(dataset.data);
  ASSERT_TRUE(automatic.ok());
  EXPECT_GE(automatic->stats.num_threads, 1);
  ExpectIdenticalResults(*serial, *automatic, "threads=auto");
}

TEST(DeterminismTest, FileSourceMatchesMemorySourceAtEveryThreadCount) {
  const LabeledDataset dataset = testing::SmallClustered(5000, 6, 2, 13);
  const std::string path = ::testing::TempDir() + "mrcc_determinism.bin";
  ASSERT_TRUE(SaveBinary(dataset.data, path).ok());
  Result<ChunkedBinaryDataSource> file = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const MemoryDataSource memory(dataset.data);

  for (int threads : {1, 2, 8}) {
    MrCCParams params;
    params.num_threads = threads;
    const MrCC method(params);
    Result<MrCCResult> from_memory = method.Run(memory);
    Result<MrCCResult> from_file = method.Run(*file);
    ASSERT_TRUE(from_memory.ok()) << from_memory.status().ToString();
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    ExpectIdenticalResults(*from_memory, *from_file,
                           "file vs memory, threads=" +
                               std::to_string(threads));
  }
  std::remove(path.c_str());
}

TEST(DeterminismTest, ThreadedRunMatchesSerialFileRun) {
  const LabeledDataset dataset = testing::SmallClustered(4000, 8, 3, 7);
  const std::string path = ::testing::TempDir() + "mrcc_determinism_file.bin";
  ASSERT_TRUE(SaveBinary(dataset.data, path).ok());

  MrCCParams params;
  params.num_threads = 4;
  Result<MrCCResult> threaded = MrCC(params).Run(dataset.data);
  ASSERT_TRUE(threaded.ok());

  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(source.ok());
  MrCCParams serial_params;  // Out-of-core entry point, serial.
  Result<MrCCResult> serial = MrCC(serial_params).Run(*source);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectIdenticalResults(*threaded, *serial, "threaded vs serial file run");
  std::remove(path.c_str());
}

TEST(DeterminismTest, NegativeThreadCountIsRejected) {
  MrCCParams params;
  params.num_threads = -2;
  const Status status = params.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mrcc

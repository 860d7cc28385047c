#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

std::string TempBinary(const Dataset& data, const char* name) {
  const std::string path = ::testing::TempDir() + "mrcc_stream_" + name;
  EXPECT_TRUE(SaveBinary(data, path).ok());
  return path;
}

// Out-of-core run: the binary file streams through MrCC::Run via the
// DataSource abstraction (the replacement for the removed
// RunMrCCOnBinaryFile wrapper).
Result<MrCCResult> RunOnFile(const std::string& path,
                             const MrCCParams& params = MrCCParams()) {
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  if (!source.ok()) return source.status();
  return MrCC(params).Run(*source);
}

/// Every point of a full ScanChunks over `source`, row-major.
std::vector<double> ScanAllValues(const DataSource& source,
                                  size_t chunk_points) {
  std::vector<double> values;
  const Status status = source.ScanChunks(
      0, source.NumPoints(), chunk_points,
      [&](size_t first, std::span<const double> chunk) {
        EXPECT_EQ(first * source.NumDims(), values.size());
        values.insert(values.end(), chunk.begin(), chunk.end());
        return Status::OK();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return values;
}

// Reading a dataset file goes through the chunked file source: the
// header's geometry, then every point in file order.
TEST(DatasetReaderTest, StreamsAllPointsInOrder) {
  Dataset d = testing::UniformDataset(200, 5, 31);
  const std::string path = TempBinary(d, "order.bin");
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->NumPoints(), 200u);
  EXPECT_EQ(source->NumDims(), 5u);
  const std::vector<double> values = ScanAllValues(*source, 7);
  ASSERT_EQ(values.size(), 200u * 5u);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      ASSERT_DOUBLE_EQ(values[i * 5 + j], d(i, j)) << "point " << i;
    }
  }
  std::remove(path.c_str());
}

// MrCC scans its input twice (tree build, then labelling): a second scan
// of the same source starts again at the first point.
TEST(DatasetReaderTest, RewindRestartsScan) {
  Dataset d = testing::UniformDataset(50, 3, 17);
  const std::string path = TempBinary(d, "rewind.bin");
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const std::vector<double> first = ScanAllValues(*source, 16);
  ASSERT_EQ(first.size(), 50u * 3u);
  EXPECT_DOUBLE_EQ(first[0], d(0, 0));
  EXPECT_EQ(ScanAllValues(*source, 16), first);
  std::remove(path.c_str());
}

TEST(DatasetReaderTest, MissingFileIsIOError) {
  const Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open("/nonexistent/x.bin");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIOError);
}

TEST(StreamingTest, MatchesInMemoryRunExactly) {
  LabeledDataset ds = testing::SmallClustered(6000, 8, 3, 2077);
  const std::string path = TempBinary(ds.data, "match.bin");

  MrCC method;
  Result<MrCCResult> in_memory = method.Run(ds.data);
  Result<MrCCResult> streamed = RunOnFile(path);
  ASSERT_TRUE(in_memory.ok() && streamed.ok());

  EXPECT_EQ(streamed->clustering.labels, in_memory->clustering.labels);
  EXPECT_EQ(streamed->beta_clusters.size(), in_memory->beta_clusters.size());
  EXPECT_EQ(streamed->clustering.NumClusters(),
            in_memory->clustering.NumClusters());
  for (size_t b = 0; b < streamed->beta_clusters.size(); ++b) {
    EXPECT_EQ(streamed->beta_clusters[b].lower,
              in_memory->beta_clusters[b].lower);
    EXPECT_EQ(streamed->beta_clusters[b].upper,
              in_memory->beta_clusters[b].upper);
  }
  std::remove(path.c_str());
}

TEST(StreamingTest, QualityMatchesGroundTruth) {
  LabeledDataset ds = testing::SmallClustered(8000, 10, 4, 2078);
  const std::string path = TempBinary(ds.data, "quality.bin");
  Result<MrCCResult> streamed = RunOnFile(path);
  ASSERT_TRUE(streamed.ok());
  const QualityReport q =
      EvaluateClustering(streamed->clustering, ds.truth);
  EXPECT_GT(q.quality, 0.85);
  std::remove(path.c_str());
}

TEST(StreamingTest, RejectsInvalidParams) {
  LabeledDataset ds = testing::SmallClustered(500, 4, 2, 2079);
  const std::string path = TempBinary(ds.data, "params.bin");
  MrCCParams params;
  params.alpha = 0.0;
  EXPECT_FALSE(RunOnFile(path, params).ok());
  std::remove(path.c_str());
}

TEST(StreamingTest, RejectsUnnormalizedFile) {
  Dataset d = testing::MakeDataset({{2.0, 1.0}, {0.1, 0.2}});
  const std::string path = TempBinary(d, "unnorm.bin");
  Result<MrCCResult> r = RunOnFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CountingTreeBuilderTest, IncrementalMatchesBatch) {
  Dataset d = testing::UniformDataset(500, 4, 99);
  Result<CountingTree> batch = CountingTree::Build(d, 4);
  Result<CountingTree> incremental = CountingTree::Empty(4, 4);
  ASSERT_TRUE(incremental.ok());
  for (size_t i = 0; i < d.NumPoints(); ++i) {
    ASSERT_TRUE(incremental->Insert(d.Point(i)).ok());
  }
  incremental->Seal();
  ASSERT_TRUE(batch.ok() && incremental.ok());
  EXPECT_EQ(incremental->total_points(), batch->total_points());
  for (int h = 1; h < 4; ++h) {
    EXPECT_EQ(incremental->NumCellsAtLevel(h), batch->NumCellsAtLevel(h));
  }
}

TEST(CountingTreeBuilderTest, RejectsBadPoints) {
  Result<CountingTree> tree = CountingTree::Empty(3, 4);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->Insert(std::vector<double>{0.5, 0.5}).ok());  // Wrong d.
  EXPECT_FALSE(tree->Insert(std::vector<double>{0.5, 0.5, 1.5}).ok());
  EXPECT_TRUE(tree->Insert(std::vector<double>{0.5, 0.5, 0.5}).ok());
}

}  // namespace
}  // namespace mrcc

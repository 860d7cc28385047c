#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/dataset_reader.h"
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
  Result<BinaryFileDataSource> source = BinaryFileDataSource::Open(path);
  if (!source.ok()) return source.status();
  return MrCC(params).Run(*source);
}

TEST(DatasetReaderTest, StreamsAllPointsInOrder) {
  Dataset d = testing::UniformDataset(200, 5, 31);
  const std::string path = TempBinary(d, "order.bin");
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_points(), 200u);
  EXPECT_EQ(reader->num_dims(), 5u);
  std::vector<double> point(5);
  size_t i = 0;
  while (reader->Next(point)) {
    for (size_t j = 0; j < 5; ++j) {
      ASSERT_DOUBLE_EQ(point[j], d(i, j)) << "point " << i;
    }
    ++i;
  }
  EXPECT_EQ(i, 200u);
  EXPECT_TRUE(reader->status().ok());
  std::remove(path.c_str());
}

TEST(DatasetReaderTest, RewindRestartsScan) {
  Dataset d = testing::UniformDataset(50, 3, 17);
  const std::string path = TempBinary(d, "rewind.bin");
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> point(3);
  while (reader->Next(point)) {
  }
  ASSERT_TRUE(reader->Rewind().ok());
  ASSERT_TRUE(reader->Next(point));
  EXPECT_DOUBLE_EQ(point[0], d(0, 0));
  std::remove(path.c_str());
}

TEST(DatasetReaderTest, MissingFileIsIOError) {
  Result<BinaryDatasetReader> reader =
      BinaryDatasetReader::Open("/nonexistent/x.bin");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST(DatasetReaderTest, WrongSpanSizeSetsStatus) {
  Dataset d = testing::UniformDataset(10, 4, 3);
  const std::string path = TempBinary(d, "span.bin");
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> wrong(3);
  EXPECT_FALSE(reader->Next(wrong));
  EXPECT_FALSE(reader->status().ok());
  std::remove(path.c_str());
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

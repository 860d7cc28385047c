#include "data/data_source.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "data/dataset_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

// ---------------------------------------------------------------------
// ScanChunks: the delivery contract (data_source.h file comment) —
// chunks in order, range covered exactly once, identical values on every
// backend at every chunk size.

/// Replays a ScanChunks call into a flat vector, checking ordering and
/// chunk-size bounds along the way.
std::vector<double> DrainChunks(const DataSource& source, size_t begin,
                                size_t end, size_t chunk_points) {
  std::vector<double> out;
  size_t expect_first = begin;
  const Status status = source.ScanChunks(
      begin, end, chunk_points,
      [&](size_t first, std::span<const double> values) {
        EXPECT_EQ(first, expect_first) << "chunks out of order or overlapping";
        EXPECT_GT(values.size(), 0u);
        EXPECT_EQ(values.size() % source.NumDims(), 0u);
        EXPECT_LE(values.size() / source.NumDims(), chunk_points);
        expect_first = first + values.size() / source.NumDims();
        out.insert(out.end(), values.begin(), values.end());
        return Status::OK();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(expect_first, end) << "range not covered";
  return out;
}

/// Points [begin, end) of `d`, row-major.
std::vector<double> Rows(const Dataset& d, size_t begin, size_t end) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    const std::span<const double> point = d.Point(i);
    out.insert(out.end(), point.begin(), point.end());
  }
  return out;
}

const auto kIgnoreChunk = [](size_t, std::span<const double>) {
  return Status::OK();
};

TEST(MemoryDataSourceTest, ScansAllPointsInOrder) {
  Dataset d = testing::UniformDataset(100, 4, 11);
  MemoryDataSource source(d);
  EXPECT_EQ(source.NumPoints(), 100u);
  EXPECT_EQ(source.NumDims(), 4u);
  EXPECT_EQ(source.Name(), "memory");
  EXPECT_EQ(DrainChunks(source, 0, 100, 13), Rows(d, 0, 100));
}

TEST(MemoryDataSourceTest, ScanRangeIsHalfOpen) {
  Dataset d = testing::UniformDataset(50, 3, 12);
  MemoryDataSource source(d);
  const std::vector<double> values = DrainChunks(source, 10, 20, 4);
  ASSERT_EQ(values.size(), 10u * 3u);
  EXPECT_DOUBLE_EQ(values.front(), d(10, 0));
  EXPECT_DOUBLE_EQ(values[9 * 3], d(19, 0));
}

TEST(MemoryDataSourceTest, EmptyRangeAndBadRange) {
  Dataset d = testing::UniformDataset(10, 2, 13);
  MemoryDataSource source(d);
  size_t calls = 0;
  EXPECT_TRUE(source
                  .ScanChunks(5, 5, 4,
                              [&](size_t, std::span<const double>) {
                                ++calls;
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(calls, 0u);  // An empty range delivers no chunk.

  EXPECT_EQ(source.ScanChunks(5, 11, 4, kIgnoreChunk).code(),
            StatusCode::kOutOfRange);  // end > NumPoints.
  EXPECT_EQ(source.ScanChunks(7, 5, 4, kIgnoreChunk).code(),
            StatusCode::kOutOfRange);  // begin > end.
}

// The binary-file backends: ChunkedBinaryDataSource (one pread per chunk)
// and MmapFileDataSource (in place, or the pread fallback).

TEST(BinaryFileDataSourceTest, MatchesMemorySource) {
  Dataset d = testing::UniformDataset(300, 6, 14);
  const std::string path = ::testing::TempDir() + "mrcc_source_eq.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  Result<ChunkedBinaryDataSource> chunked = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_EQ(chunked->NumPoints(), 300u);
  EXPECT_EQ(chunked->NumDims(), 6u);
  EXPECT_EQ(chunked->Name(), path);
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->Name(), path);

  MemoryDataSource memory(d);
  // Whole-scan equivalence plus several sub-ranges, including the ends.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {0, 1}, {299, 300}, {100, 200}, {42, 43}, {150, 150}};
  for (const auto& [begin, end] : ranges) {
    SCOPED_TRACE("range [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    const std::vector<double> want = DrainChunks(memory, begin, end, 7);
    EXPECT_EQ(DrainChunks(*chunked, begin, end, 7), want);
    EXPECT_EQ(DrainChunks(*mapped, begin, end, 7), want);
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, ConcurrentCursorsSeeTheirOwnSlices) {
  Dataset d = testing::UniformDataset(1000, 3, 15);
  const std::string path = ::testing::TempDir() + "mrcc_source_mt.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<ChunkedBinaryDataSource> chunked = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  for (const DataSource* source :
       {static_cast<const DataSource*>(&*chunked),
        static_cast<const DataSource*>(&*mapped)}) {
    // Four threads scan disjoint quarters concurrently; every value must
    // land at its own global index.
    std::vector<double> first_axis(1000, -1.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        const size_t begin = 250 * static_cast<size_t>(t);
        const size_t end = begin + 250;
        size_t next = begin;
        const Status status = source->ScanChunks(
            begin, end, 17, [&](size_t first, std::span<const double> values) {
              EXPECT_EQ(first, next);
              for (size_t k = 0; k < values.size(); k += 3) {
                first_axis[next++] = values[k];
              }
              return Status::OK();
            });
        EXPECT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(next, end);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < 1000; ++i) {
      ASSERT_DOUBLE_EQ(first_axis[i], d(i, 0)) << "point " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, MissingFileFailsOnOpen) {
  EXPECT_FALSE(ChunkedBinaryDataSource::Open("/nonexistent/x.bin").ok());
  EXPECT_FALSE(MmapFileDataSource::Open("/nonexistent/x.bin").ok());
}

TEST(BinaryFileDataSourceTest, TruncatedFileFailsWithTheByteOffset) {
  // Regression: a partially-written dataset used to scan as zeros past
  // the cut. Now every reader rejects it up front — through the one
  // header parser — naming where the data ran out.
  Dataset d = testing::UniformDataset(200, 4, 18);
  const std::string path = ::testing::TempDir() + "mrcc_truncated.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  // Cut the file mid-way through the point payload.
  const uint64_t cut = 24 + 100 * 4 * sizeof(double) + 3;
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(cut)), 0);

  const Status statuses[] = {ChunkedBinaryDataSource::Open(path).status(),
                             MmapFileDataSource::Open(path).status(),
                             LoadBinary(path).status()};
  for (const Status& status : statuses) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    // The message names the byte where data ends and what was promised.
    EXPECT_NE(status.message().find(std::to_string(cut)), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("200 points"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, HeaderOnlyTruncationFailsOnOpen) {
  Dataset d = testing::UniformDataset(50, 2, 19);
  const std::string path = ::testing::TempDir() + "mrcc_header_cut.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  ASSERT_EQ(truncate(path.c_str(), 10), 0);  // Inside the header.
  EXPECT_EQ(ChunkedBinaryDataSource::Open(path).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(MmapFileDataSource::Open(path).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadBinary(path).status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, TransientReadErrorIsRetriedToSuccess) {
  // One injected EAGAIN on the first block read: the retry loop in
  // common/fs absorbs it and the scan returns data identical to the
  // clean scan.
  Dataset d = testing::UniformDataset(120, 3, 20);
  const std::string path = ::testing::TempDir() + "mrcc_transient.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<ChunkedBinaryDataSource> file = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<double> expected = DrainChunks(*file, 0, 120, 16);
  ASSERT_EQ(expected, Rows(d, 0, 120));

  fp::ScopedArm arm("source.read.transient=1");
  EXPECT_EQ(DrainChunks(*file, 0, 120, 16), expected);
  EXPECT_GT(fp::HitCount("source.read.transient"), 0u);
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, ExhaustedRetriesSurfaceAsIOError) {
  Dataset d = testing::UniformDataset(60, 3, 22);
  const std::string path = ::testing::TempDir() + "mrcc_exhausted.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<ChunkedBinaryDataSource> file = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  fp::ScopedArm arm("source.read.transient");  // Every attempt fails.
  // With a persistent fault the first block read never completes, and
  // the error names the exhausted retry budget.
  const Status status = file->ScanChunks(0, 60, 16, kIgnoreChunk);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("retries"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(ScanChunksTest, EveryBackendDeliversIdenticalChunkStreams) {
  Dataset d = testing::UniformDataset(257, 5, 23);
  const std::string path = ::testing::TempDir() + "mrcc_chunks.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  MemoryDataSource memory(d);
  Result<ChunkedBinaryDataSource> chunked = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(chunked.ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->using_mmap());

  const std::vector<double> expected = DrainChunks(memory, 0, 257, 257);
  ASSERT_EQ(expected.size(), 257u * 5u);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    SCOPED_TRACE("chunk_points=" + std::to_string(chunk));
    EXPECT_EQ(DrainChunks(memory, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(*chunked, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(*mapped, 0, 257, chunk), expected);
  }
  // Sub-ranges, including both ends.
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 1}, {256, 257}, {100, 200}}) {
    SCOPED_TRACE("range [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    const std::vector<double> want(expected.begin() + begin * 5,
                                   expected.begin() + end * 5);
    EXPECT_EQ(DrainChunks(*chunked, begin, end, 3), want);
    EXPECT_EQ(DrainChunks(*mapped, begin, end, 3), want);
  }
  std::remove(path.c_str());
}

TEST(ScanChunksTest, CallbackErrorAbortsTheScanUnchanged) {
  Dataset d = testing::UniformDataset(40, 2, 24);
  MemoryDataSource source(d);
  size_t calls = 0;
  const Status status = source.ScanChunks(
      0, 40, 10, [&](size_t, std::span<const double>) {
        ++calls;
        return calls == 2 ? Status::Internal("stop here") : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "stop here");
  EXPECT_EQ(calls, 2u);  // Nothing delivered past the failure.
}

TEST(ScanChunksTest, ArgumentsAreValidated) {
  Dataset d = testing::UniformDataset(10, 2, 25);
  const std::string path = ::testing::TempDir() + "mrcc_chunk_args.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  MemoryDataSource memory(d);
  Result<ChunkedBinaryDataSource> chunked = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(chunked.ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());

  for (const DataSource* source :
       {static_cast<const DataSource*>(&memory),
        static_cast<const DataSource*>(&*chunked),
        static_cast<const DataSource*>(&*mapped)}) {
    EXPECT_EQ(source->ScanChunks(0, 11, 4, kIgnoreChunk).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(source->ScanChunks(7, 5, 4, kIgnoreChunk).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(source->ScanChunks(0, 10, 0, kIgnoreChunk).code(),
              StatusCode::kInvalidArgument);
    // An empty range is a no-op, not an error.
    EXPECT_TRUE(source->ScanChunks(5, 5, 4, kIgnoreChunk).ok());
  }
  std::remove(path.c_str());
}

TEST(ScanChunksTest, ChunkReadFaultSurfacesFromEveryBackend) {
  Dataset d = testing::UniformDataset(30, 3, 26);
  const std::string path = ::testing::TempDir() + "mrcc_chunk_fault.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<ChunkedBinaryDataSource> chunked = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(chunked.ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  MemoryDataSource memory(d);

  fp::ScopedArm arm("source.chunk.read");
  EXPECT_EQ(memory.ScanChunks(0, 30, 8, kIgnoreChunk).code(),
            StatusCode::kIOError);
  EXPECT_EQ(chunked->ScanChunks(0, 30, 8, kIgnoreChunk).code(),
            StatusCode::kIOError);
  EXPECT_EQ(mapped->ScanChunks(0, 30, 8, kIgnoreChunk).code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(MmapFileDataSourceTest, CursorScanMatchesMemory) {
  Dataset d = testing::UniformDataset(128, 4, 27);
  const std::string path = ::testing::TempDir() + "mrcc_mmap_scan.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  MemoryDataSource memory(d);

  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 128}, {0, 1}, {127, 128}, {30, 90}}) {
    EXPECT_EQ(DrainChunks(*mapped, begin, end, 9),
              DrainChunks(memory, begin, end, 9))
        << "range [" << begin << ", " << end << ")";
  }
  std::remove(path.c_str());
}

TEST(MmapFileDataSourceTest, FallbackServesTheSameBytes) {
  Dataset d = testing::UniformDataset(90, 3, 28);
  const std::string path = ::testing::TempDir() + "mrcc_mmap_fb.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped->using_mmap());
  const std::vector<double> expected = DrainChunks(*mapped, 0, 90, 11);

  Result<MmapFileDataSource> fallback(Status::Internal("unset"));
  {
    fp::ScopedArm arm("source.mmap");
    fallback = MmapFileDataSource::Open(path);
  }
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback->using_mmap());
  EXPECT_EQ(DrainChunks(*fallback, 0, 90, 11), expected);
  EXPECT_EQ(DrainChunks(*fallback, 30, 60, 4),
            std::vector<double>(expected.begin() + 30 * 3,
                                expected.begin() + 60 * 3));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrcc

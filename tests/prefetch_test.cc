// ReadAheadScanner: the pipelined chunk-scan layer (data/prefetch.h).
//
// The contract under test: at every depth the scanner delivers the same
// chunk sequence as a synchronous ScanChunks call — same order, same
// (first, values) payloads — reader-side errors surface prefix-then-fail
// like the synchronous scan, consumer errors cancel the reader, a failed
// reader spawn degrades to the synchronous path, and the budget-driven
// chunk shrink accounts for the ring depth. Registered under the
// `concurrency` ctest label, so the TSan config sweeps the ring.

#include "data/prefetch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "test_util.h"

namespace mrcc {
namespace {

struct ChunkLog {
  std::vector<size_t> firsts;
  std::vector<std::vector<double>> payloads;

  bool operator==(const ChunkLog&) const = default;
};

/// Runs one scan and records every delivered chunk.
Status Record(const ReadAheadScanner& scanner, size_t begin, size_t end,
              size_t chunk_points, ChunkLog* log,
              PrefetchStats* stats = nullptr) {
  return scanner.ScanChunks(
      begin, end, chunk_points,
      [log](size_t first, std::span<const double> values) -> Status {
        log->firsts.push_back(first);
        log->payloads.emplace_back(values.begin(), values.end());
        return Status::OK();
      },
      stats);
}

class PrefetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.name = "prefetch";
    cfg.num_points = 3000;
    cfg.num_dims = 6;
    cfg.num_clusters = 2;
    cfg.seed = 29;
    Result<LabeledDataset> r = GenerateSynthetic(cfg);
    MRCC_CHECK(r.ok());
    data_ = std::move(r->data);
    bin_path_ = testing::UniqueTempPath("mrcc_prefetch_test") + ".bin";
    MRCC_CHECK(SaveBinary(data_, bin_path_).ok());
  }

  void TearDown() override {
    fp::DisarmAll();
    std::remove(bin_path_.c_str());
  }

  Dataset data_;
  std::string bin_path_;
};

TEST_F(PrefetchTest, EveryDepthDeliversTheSynchronousChunkSequence) {
  const MemoryDataSource memory(data_);
  Result<ChunkedBinaryDataSource> chunked =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const DataSource* sources[] = {&memory, &*chunked, &*mapped};

  for (const DataSource* source : sources) {
    SCOPED_TRACE(source->Name());
    for (const size_t chunk : {size_t{1}, size_t{257}, size_t{4096}}) {
      SCOPED_TRACE("chunk_points=" + std::to_string(chunk));
      ChunkLog sync;
      ASSERT_TRUE(source->ScanChunks(
                            5, 2977, chunk,
                            [&sync](size_t first,
                                    std::span<const double> values) -> Status {
                              sync.firsts.push_back(first);
                              sync.payloads.emplace_back(values.begin(),
                                                         values.end());
                              return Status::OK();
                            })
                      .ok());
      for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("depth=" + std::to_string(depth));
        const ReadAheadScanner scanner(*source, depth);
        ChunkLog piped;
        PrefetchStats stats;
        ASSERT_TRUE(Record(scanner, 5, 2977, chunk, &piped, &stats).ok());
        EXPECT_EQ(piped, sync);
        EXPECT_EQ(stats.chunks, sync.firsts.size());
        EXPECT_EQ(stats.spawn_fallbacks, 0u);
      }
    }
  }
}

TEST_F(PrefetchTest, EmptyRangeDeliversNothingAtEveryDepth) {
  const MemoryDataSource source(data_);
  for (const size_t depth : {size_t{0}, size_t{2}}) {
    const ReadAheadScanner scanner(source, depth);
    ChunkLog log;
    ASSERT_TRUE(Record(scanner, 100, 100, 64, &log).ok());
    EXPECT_TRUE(log.firsts.empty());
  }
}

TEST_F(PrefetchTest, InvalidArgsPropagateFromTheWrappedSource) {
  const MemoryDataSource source(data_);
  const ReadAheadScanner scanner(source, 2);
  const auto ignore = [](size_t, std::span<const double>) -> Status {
    return Status::OK();
  };
  // chunk_points = 0 and an out-of-range scan are the wrapped source's
  // errors; the pipeline must hand them through untouched.
  EXPECT_EQ(scanner.ScanChunks(0, 10, 0, ignore).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scanner.ScanChunks(0, data_.NumPoints() + 1, 64, ignore).code(),
            StatusCode::kOutOfRange);
}

TEST_F(PrefetchTest, ReaderErrorArrivesAfterTheChunksReadBeforeIt) {
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(source.ok());

  // Fire on the 3rd chunk delivery: the synchronous scan yields exactly
  // two chunks then the IOError; the pipelined scan must match even
  // though the reader ran ahead.
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    ASSERT_TRUE(fp::Arm("source.chunk.read=3").ok());
    const ReadAheadScanner scanner(*source, depth);
    ChunkLog log;
    const Status status = Record(scanner, 0, 3000, 100, &log);
    fp::DisarmAll();
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    ASSERT_EQ(log.firsts.size(), 2u);
    EXPECT_EQ(log.firsts[0], 0u);
    EXPECT_EQ(log.firsts[1], 100u);
  }
}

TEST_F(PrefetchTest, ConsumerErrorCancelsTheReaderAndPropagates) {
  const MemoryDataSource source(data_);
  for (const size_t depth : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    const ReadAheadScanner scanner(source, depth);
    int seen = 0;
    const Status status = scanner.ScanChunks(
        0, 3000, 50, [&seen](size_t, std::span<const double>) -> Status {
          if (++seen == 4) {
            return Status::InvalidArgument("consumer says stop");
          }
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "consumer says stop");
    EXPECT_EQ(seen, 4);
  }
}

TEST_F(PrefetchTest, SpawnFailureFallsBackToTheSynchronousPath) {
  const MemoryDataSource source(data_);
  ChunkLog sync;
  ASSERT_TRUE(Record(ReadAheadScanner(source, 0), 0, 3000, 128, &sync).ok());

  ASSERT_TRUE(fp::Arm("pool.spawn").ok());
  const ReadAheadScanner scanner(source, 2);
  ChunkLog piped;
  PrefetchStats stats;
  ASSERT_TRUE(Record(scanner, 0, 3000, 128, &piped, &stats).ok());
  fp::DisarmAll();
  EXPECT_EQ(piped, sync);
  EXPECT_EQ(stats.spawn_fallbacks, 1u);
  EXPECT_EQ(stats.chunks, sync.firsts.size());
}

TEST_F(PrefetchTest, DeepRingParksTheReaderOnAFullRingNotPastIt) {
  // A depth far beyond the chunk count must neither lose nor duplicate
  // chunks, and a slow consumer should see the reader waiting on the
  // ring (queue_full_waits) rather than racing ahead of it.
  const MemoryDataSource source(data_);
  const ReadAheadScanner scanner(source, 64);
  ChunkLog log;
  PrefetchStats stats;
  ASSERT_TRUE(Record(scanner, 0, 300, 100, &log, &stats).ok());
  EXPECT_EQ(log.firsts, (std::vector<size_t>{0, 100, 200}));
  EXPECT_EQ(stats.chunks, 3u);
}

TEST_F(PrefetchTest, BudgetShrinksChunksByTheRingDepth) {
  // With a memory budget, the automatic chunk size divides by the ring
  // depth: buffers × chunk stays level as the depth grows, and the
  // resident-point bound reported by the run reflects depth × chunk.
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(source.ok());

  MrCCParams params;
  params.num_threads = 1;
  // Small enough that the budget, not the 4096-point default, decides
  // the chunk size (6 dims × 8 bytes × 4096 points ≈ 192 KiB per buffer).
  params.budget.max_memory_bytes = 256 * 1024;

  std::vector<int> reference;
  size_t chunk_at_depth_1 = 0;
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    params.read_ahead_chunks = depth;
    Result<MrCCResult> r = MrCC(params).Run(*source);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Same labels no matter how the budget reshapes the chunks.
    if (reference.empty()) {
      reference = r->clustering.labels;
    } else {
      EXPECT_EQ(r->clustering.labels, reference);
    }
    EXPECT_EQ(r->stats.read_ahead_chunks, depth);
    if (depth == 1) {
      chunk_at_depth_1 = r->stats.chunk_points;
    } else {
      // Deeper ring -> proportionally smaller chunks (up to rounding).
      EXPECT_LE(r->stats.chunk_points, chunk_at_depth_1 / depth + 1);
      EXPECT_GE(r->stats.chunk_points, size_t{1});
    }
    // The bound covers the whole ring, never more than the dataset slice.
    EXPECT_LE(r->stats.resident_point_bound,
              std::max<size_t>(depth * r->stats.chunk_points,
                               data_.NumPoints()));
    EXPECT_GE(r->stats.resident_point_bound, r->stats.chunk_points);
  }
}

TEST_F(PrefetchTest, ExplicitChunkSizeIsNotShrunkByDepth) {
  MrCCParams params;
  params.num_threads = 1;
  params.chunk_points = 700;
  params.read_ahead_chunks = 8;
  params.budget.max_memory_bytes = 4 * 1024 * 1024;
  Result<MrCCResult> r = MrCC(params).Run(data_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.chunk_points, 700u);
  // 8 buffers × 700 points, capped by the single shard's slice.
  EXPECT_EQ(r->stats.resident_point_bound,
            std::min<size_t>(8 * 700, data_.NumPoints()));
}

TEST_F(PrefetchTest, ShardedRunsPipelineEveryBackendIdentically) {
  // End-to-end: multi-threaded MrCC over each backend at several depths
  // yields one answer. (The golden test pins this to history; this one
  // keeps the sweep in the TSan-labeled binary so the ring is raced.)
  const MemoryDataSource memory(data_);
  Result<ChunkedBinaryDataSource> chunked =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(chunked.ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(bin_path_);
  ASSERT_TRUE(mapped.ok());
  const DataSource* sources[] = {&memory, &*chunked, &*mapped};

  MrCCParams params;
  params.num_threads = 4;
  params.chunk_points = 251;

  std::vector<int> reference;
  for (const DataSource* source : sources) {
    SCOPED_TRACE(source->Name());
    for (const size_t depth : {size_t{0}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth));
      params.read_ahead_chunks = depth;
      Result<MrCCResult> r = MrCC(params).Run(*source);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (reference.empty()) {
        reference = r->clustering.labels;
      } else {
        EXPECT_EQ(r->clustering.labels, reference);
      }
    }
  }
}

}  // namespace
}  // namespace mrcc

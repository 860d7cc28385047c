#include "data/data_source.h"

#include <algorithm>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace mrcc {
namespace {

Status CheckChunkArgs(size_t begin, size_t end, size_t num_points,
                      size_t chunk_points) {
  if (begin > end || end > num_points) {
    return Status::OutOfRange("scan range [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ") outside dataset of " +
                              std::to_string(num_points) + " points");
  }
  if (chunk_points == 0) {
    return Status::InvalidArgument("chunk_points must be >= 1");
  }
  return Status::OK();
}

/// Shared tail of the in-place (memory and mmap) ScanChunks: opens the
/// per-chunk trace span, honors the chunk-delivery failpoint, and hands
/// the chunk to the consumer.
Status EmitChunk(size_t first, size_t count, std::span<const double> values,
                 const DataSource::ChunkCallback& fn) {
  MRCC_TRACE_SPAN_N("source.scan_chunk", static_cast<int64_t>(count));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.chunk.read"));
  return fn(first, values);
}

}  // namespace

Status MemoryDataSource::ScanChunks(size_t begin, size_t end,
                                    size_t chunk_points,
                                    const ChunkCallback& fn) const {
  MRCC_RETURN_IF_ERROR(CheckChunkArgs(begin, end, NumPoints(), chunk_points));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.scan"));
  const size_t num_dims = NumDims();
  size_t next = begin;
  while (next < end) {
    const size_t count = std::min(chunk_points, end - next);
    // Rows are contiguous in the dataset's flat buffer, so a multi-row
    // span is just the first row widened.
    const std::span<const double> values(data_->Point(next).data(),
                                         count * num_dims);
    MRCC_RETURN_IF_ERROR(EmitChunk(next, count, values, fn));
    next += count;
  }
  return Status::OK();
}

Result<ChunkedBinaryDataSource> ChunkedBinaryDataSource::Open(
    const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  Result<BinaryHeader> header = ReadBinaryHeader(fd->get(), path);
  if (!header.ok()) return header.status();
  ChunkedBinaryDataSource source;
  source.path_ = path;
  source.header_ = *header;
  return source;
}

Status ChunkedBinaryDataSource::ScanChunks(size_t begin, size_t end,
                                           size_t chunk_points,
                                           const ChunkCallback& fn) const {
  MRCC_RETURN_IF_ERROR(CheckChunkArgs(begin, end, NumPoints(), chunk_points));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.scan"));
  Result<UniqueFd> fd = OpenForRead(path_);
  if (!fd.ok()) return fd.status();
  const size_t num_dims = NumDims();
  const uint64_t point_bytes = num_dims * sizeof(double);
  // One block buffer reused across the whole scan (no per-chunk
  // allocation); short final blocks read a prefix of it.
  std::vector<double> buffer(std::min(chunk_points, end - begin) * num_dims);
  size_t next = begin;
  while (next < end) {
    const size_t count = std::min(chunk_points, end - next);
    MRCC_RETURN_IF_ERROR(fp::Maybe("source.chunk.read"));
    MRCC_RETURN_IF_ERROR(ReadExactAt(
        fd->get(), buffer.data(), count * point_bytes,
        header_.data_start + next * point_bytes, path_));
    {
      MRCC_TRACE_SPAN_N("source.scan_chunk", static_cast<int64_t>(count));
      MRCC_RETURN_IF_ERROR(fn(next, std::span<const double>(
                                        buffer.data(), count * num_dims)));
    }
    next += count;
  }
  return Status::OK();
}

Result<MmapFileDataSource> MmapFileDataSource::Open(const std::string& path) {
  Result<ChunkedBinaryDataSource> file = ChunkedBinaryDataSource::Open(path);
  if (!file.ok()) return file.status();
  MmapFileDataSource source(std::move(*file));
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  // Map header + point data only; a trailing label block is not scanned.
  const BinaryHeader& header = source.file_.header_;
  const uint64_t map_bytes =
      header.data_start + uint64_t{header.num_points} * header.num_dims *
                              sizeof(double);
  Result<MmapRegion> region = MmapRegion::Map(fd->get(), map_bytes, path);
  if (region.ok()) {
    source.region_ = std::move(*region);
  } else {
    // Kernel (or failpoint) refused the mapping: scans degrade to the
    // file's bounded pread blocks rather than failing.
    MetricsRegistry::Global().counter("source.mmap_fallbacks").Increment();
  }
  return source;
}

const double* MmapFileDataSource::Row(size_t i) const {
  return reinterpret_cast<const double*>(region_.data() +
                                         file_.header_.data_start) +
         i * NumDims();
}

Status MmapFileDataSource::ScanChunks(size_t begin, size_t end,
                                      size_t chunk_points,
                                      const ChunkCallback& fn) const {
  if (!using_mmap()) return file_.ScanChunks(begin, end, chunk_points, fn);
  MRCC_RETURN_IF_ERROR(CheckChunkArgs(begin, end, NumPoints(), chunk_points));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.scan"));
  const size_t num_dims = NumDims();
  const size_t point_bytes = num_dims * sizeof(double);
  size_t next = begin;
  while (next < end) {
    const size_t count = std::min(chunk_points, end - next);
    // Tell the kernel to start paging in the next window while the
    // consumer works on this one — the mmap path's own read-ahead
    // (advisory; MADV_SEQUENTIAL already turned readahead up, this
    // pins it to the scan's actual stride).
    const size_t ahead = next + count;
    if (ahead < end) {
      region_.WillNeed(file_.header_.data_start + ahead * point_bytes,
                       std::min(chunk_points, end - ahead) * point_bytes);
    }
    const std::span<const double> values(Row(next), count * num_dims);
    MRCC_RETURN_IF_ERROR(EmitChunk(next, count, values, fn));
    next += count;
  }
  return Status::OK();
}

}  // namespace mrcc

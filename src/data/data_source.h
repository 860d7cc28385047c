// The DataSource abstraction: one point-stream interface for every
// dataset backend.
//
// MrCC reads its input exactly twice — once to count points into the
// Counting-tree and once to label them against the final β-cluster boxes —
// and both reads are plain sequential scans. A DataSource captures just
// that contract: it knows its shape (η points × d axes) and can hand out
// independent cursors over contiguous point ranges. Cursors over disjoint
// ranges may run on different threads concurrently, which is what the
// parallel engine shards on.
//
// Two access styles exist:
//   - Scan(): a point-at-a-time Cursor — the simplest consumer API.
//   - ScanChunks(): delivers blocks of up to `chunk_points` points to a
//     callback. At most one chunk is resident per scan, so a consumer
//     bounds its raw-point memory at chunk_points · d · 8 bytes no matter
//     how large the dataset is. This is the out-of-core build path.
//
// Backends, in increasing order of out-of-core fitness:
//   - MemoryDataSource: a zero-copy view over an in-memory Dataset.
//   - BinaryFileDataSource: an out-of-core view over a file written by
//     SaveBinary(); every cursor owns its own file handle, so parallel
//     slice scans do not contend on a shared stream position. One pread
//     per point.
//   - ChunkedBinaryDataSource: same file format, but reads bounded blocks
//     of points per pread — the syscall cost is amortized over the block.
//   - MmapFileDataSource: maps the file (madvise SEQUENTIAL) and serves
//     points in place with zero copies; falls back to the
//     ChunkedBinaryDataSource pread path when the kernel refuses the
//     mapping (address-space cap, filesystem without mmap).
//
// Every ScanChunks implementation honors the `source.chunk.read`
// failpoint once per delivered chunk (the "this block became unreadable"
// seam) and opens a `source.scan_chunk` trace span per chunk.
//
// MrCC::Run(const DataSource&) is the single pipeline entry point; the
// in-memory and streaming drivers are thin wrappers over it.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/dataset_reader.h"

namespace mrcc {

/// Points per chunk of the pipeline's scans when nothing constrains it
/// (see MrCC's ChunkPointsFor). 4096 points × 62 dims × 8 bytes ≈ 2 MiB
/// per scan — enough to amortize a block read, small enough to stay
/// cache-friendly.
inline constexpr size_t kDefaultChunkPoints = 4096;

/// A readable collection of η points in d dimensions (see file comment).
class DataSource {
 public:
  /// Sequential view over one contiguous range of points.
  class Cursor {
   public:
    virtual ~Cursor() = default;

    /// Advances to the next point and exposes it through `point`. The view
    /// stays valid until the next call or the cursor's destruction.
    /// Returns false at the end of the range or on error — check status().
    virtual bool Next(std::span<const double>* point) = 0;

    /// Sticky error state (OK unless a read failed mid-scan).
    virtual const Status& status() const = 0;
  };

  /// Receives one chunk of points: `first` is the dataset index of the
  /// chunk's first point, `values` holds the points row-major
  /// (values.size() / NumDims() of them). The span is valid only for the
  /// duration of the call. A non-OK return aborts the scan and propagates
  /// out of ScanChunks unchanged.
  using ChunkCallback =
      std::function<Status(size_t first, std::span<const double> values)>;

  virtual ~DataSource() = default;

  /// Human-readable origin of the data ("memory", a file path, ...).
  virtual std::string Name() const = 0;

  virtual size_t NumPoints() const = 0;
  virtual size_t NumDims() const = 0;

  /// Opens an independent cursor over points [begin, end). Requires
  /// begin <= end <= NumPoints(). Cursors over disjoint ranges are safe to
  /// drive from different threads concurrently.
  [[nodiscard]] virtual Result<std::unique_ptr<Cursor>> Scan(size_t begin,
                                               size_t end) const = 0;

  /// Cursor over the whole source.
  [[nodiscard]] Result<std::unique_ptr<Cursor>> ScanAll() const {
    return Scan(0, NumPoints());
  }

  /// Streams points [begin, end) to `fn` in chunks of at most
  /// `chunk_points` (>= 1) points each. Chunks arrive in order and cover
  /// the range exactly once, so any per-point fold over them is
  /// bit-identical to a Cursor scan. The default implementation buffers
  /// a Cursor; backends override it to read whole blocks or serve pages
  /// in place. Like Scan, concurrent calls over disjoint ranges are safe.
  [[nodiscard]] virtual Status ScanChunks(size_t begin, size_t end,
                                          size_t chunk_points,
                                          const ChunkCallback& fn) const;
};

/// Zero-copy DataSource over an in-memory Dataset. Non-owning: the
/// dataset must outlive the source and every cursor.
class MemoryDataSource : public DataSource {
 public:
  explicit MemoryDataSource(const Dataset& data) : data_(&data) {}

  std::string Name() const override { return "memory"; }
  size_t NumPoints() const override { return data_->NumPoints(); }
  size_t NumDims() const override { return data_->NumDims(); }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> Scan(size_t begin,
                                       size_t end) const override;
  /// Chunks are served straight out of the dataset's row-major buffer —
  /// no copies at any chunk size.
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  const Dataset& data() const { return *data_; }

 private:
  const Dataset* data_;
};

/// Out-of-core DataSource over a binary dataset file (SaveBinary format).
/// Construction validates the header once; each Scan opens its own
/// reader so slices stream independently.
class BinaryFileDataSource : public DataSource {
 public:
  /// Opens `path` and reads the header.
  [[nodiscard]] static Result<BinaryFileDataSource> Open(
      const std::string& path);

  std::string Name() const override { return path_; }
  size_t NumPoints() const override { return num_points_; }
  size_t NumDims() const override { return num_dims_; }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> Scan(size_t begin,
                                       size_t end) const override;

 private:
  BinaryFileDataSource() = default;

  std::string path_;
  size_t num_points_ = 0;
  size_t num_dims_ = 0;
};

/// Out-of-core DataSource that reads the binary file in bounded blocks —
/// one pread per block instead of one per point. `buffer_bytes` caps the
/// read buffer each cursor (or ScanChunks call) holds, so total raw-point
/// memory during a sharded scan is num_shards · buffer_bytes no matter
/// how large the file is.
class ChunkedBinaryDataSource : public DataSource {
 public:
  static constexpr size_t kDefaultBufferBytes = size_t{1} << 20;  // 1 MiB

  /// Opens `path` and reads the header. `buffer_bytes` is clamped so a
  /// block always holds at least one point.
  [[nodiscard]] static Result<ChunkedBinaryDataSource> Open(
      const std::string& path, size_t buffer_bytes = kDefaultBufferBytes);

  std::string Name() const override { return path_; }
  size_t NumPoints() const override { return num_points_; }
  size_t NumDims() const override { return num_dims_; }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> Scan(size_t begin,
                                       size_t end) const override;
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  /// Points per block read (buffer_bytes / point size, at least 1).
  size_t buffer_points() const { return buffer_points_; }

 private:
  ChunkedBinaryDataSource() = default;

  std::string path_;
  size_t num_points_ = 0;
  size_t num_dims_ = 0;
  uint64_t data_start_ = 0;
  size_t buffer_points_ = 1;
};

/// DataSource that memory-maps the binary file and serves points in
/// place (zero copies, kernel-managed residency via MADV_SEQUENTIAL).
/// When the mapping is refused — address-space cap, filesystem without
/// mmap, or the `source.mmap` failpoint — Open falls back to the
/// ChunkedBinaryDataSource pread path instead of failing; using_mmap()
/// reports which mode is live. Move-only: cursors reference the mapping,
/// so the source must outlive them (same contract as MemoryDataSource).
class MmapFileDataSource : public DataSource {
 public:
  /// Opens `path`, validates the header, and maps the file (or arms the
  /// pread fallback; see class comment).
  [[nodiscard]] static Result<MmapFileDataSource> Open(
      const std::string& path);

  MmapFileDataSource(MmapFileDataSource&&) = default;
  MmapFileDataSource& operator=(MmapFileDataSource&&) = default;

  std::string Name() const override { return path_; }
  size_t NumPoints() const override { return num_points_; }
  size_t NumDims() const override { return num_dims_; }
  [[nodiscard]] Result<std::unique_ptr<Cursor>> Scan(size_t begin,
                                       size_t end) const override;
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  /// True when the mapping is live; false when serving via the pread
  /// fallback.
  bool using_mmap() const { return region_.valid(); }

 private:
  MmapFileDataSource() = default;

  /// First value of point `i`, served from the mapping. Valid only when
  /// using_mmap(). The header is 8-byte aligned (dataset_reader.h), so
  /// the cast is aligned.
  const double* Row(size_t i) const;

  std::string path_;
  size_t num_points_ = 0;
  size_t num_dims_ = 0;
  uint64_t data_start_ = 0;
  MmapRegion region_;
  std::unique_ptr<ChunkedBinaryDataSource> fallback_;
};

}  // namespace mrcc

// The DataSource abstraction: one point-stream interface for every
// dataset backend.
//
// MrCC reads its input exactly twice — once to count points into the
// Counting-tree and once to label them against the final β-cluster boxes —
// and both reads are plain sequential scans. A DataSource captures just
// that contract: it knows its shape (η points × d axes) and streams any
// contiguous range of points to a callback in chunks of at most
// `chunk_points` points (ScanChunks). At most one chunk is resident per
// scan, so a consumer bounds its raw-point memory at
// chunk_points · d · 8 bytes no matter how large the dataset is. Scans
// over disjoint ranges may run on different threads concurrently, which
// is what the parallel engine shards on.
//
// Three backends, one per place the points can live:
//   - MemoryDataSource: a zero-copy view over an in-memory Dataset.
//   - ChunkedBinaryDataSource: reads a file written by SaveBinary() with
//     one pread per chunk; every scan owns its own file handle.
//   - MmapFileDataSource: maps the same file (madvise SEQUENTIAL) and
//     serves chunks in place with zero copies; falls back to the
//     ChunkedBinaryDataSource pread path when the kernel refuses the
//     mapping (address-space cap, filesystem without mmap).
// Both file backends validate the file with ReadBinaryHeader
// (dataset_io.h), the format's only header parser.
//
// Every ScanChunks implementation honors the `source.scan` failpoint once
// per scan and the `source.chunk.read` failpoint once per delivered chunk
// (the "this block became unreadable" seam), and opens a
// `source.scan_chunk` trace span per chunk.
//
// MrCC::Run(const DataSource&) is the single pipeline entry point; the
// in-memory and streaming drivers are thin wrappers over it.

#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>

#include "common/fs.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/dataset_io.h"

namespace mrcc {

/// Points per chunk of the pipeline's scans when nothing constrains it
/// (see MrCC's ChunkPointsFor). 4096 points × 62 dims × 8 bytes ≈ 2 MiB
/// per scan — enough to amortize a block read, small enough to stay
/// cache-friendly.
inline constexpr size_t kDefaultChunkPoints = 4096;

/// A readable collection of η points in d dimensions (see file comment).
class DataSource {
 public:
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

  /// Streams points [begin, end) to `fn` in chunks of at most
  /// `chunk_points` (>= 1) points each. Requires
  /// begin <= end <= NumPoints(). Chunks arrive in order and cover the
  /// range exactly once, so a per-point fold over them does not depend on
  /// the chunk size. Concurrent calls over disjoint ranges are safe.
  [[nodiscard]] virtual Status ScanChunks(size_t begin, size_t end,
                                          size_t chunk_points,
                                          const ChunkCallback& fn) const = 0;
};

/// Zero-copy DataSource over an in-memory Dataset. Non-owning: the
/// dataset must outlive the source and every scan.
class MemoryDataSource : public DataSource {
 public:
  explicit MemoryDataSource(const Dataset& data) : data_(&data) {}

  std::string Name() const override { return "memory"; }
  size_t NumPoints() const override { return data_->NumPoints(); }
  size_t NumDims() const override { return data_->NumDims(); }
  /// Chunks are served straight out of the dataset's row-major buffer —
  /// no copies at any chunk size.
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  const Dataset& data() const { return *data_; }

 private:
  const Dataset* data_;
};

/// Out-of-core DataSource over a binary dataset file (SaveBinary format):
/// each scan opens its own handle and reads one block of `chunk_points`
/// points per pread into a single reused buffer, so total raw-point
/// memory during a sharded scan is shards · chunk_points · d · 8 bytes no
/// matter how large the file is.
class ChunkedBinaryDataSource : public DataSource {
 public:
  /// Opens `path` and validates its header (ReadBinaryHeader).
  [[nodiscard]] static Result<ChunkedBinaryDataSource> Open(
      const std::string& path);

  std::string Name() const override { return path_; }
  size_t NumPoints() const override { return header_.num_points; }
  size_t NumDims() const override { return header_.num_dims; }
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

 private:
  friend class MmapFileDataSource;  // Maps the same header's payload.

  ChunkedBinaryDataSource() = default;

  std::string path_;
  BinaryHeader header_;
};

/// DataSource that memory-maps the binary file and serves points in
/// place (zero copies, kernel-managed residency via MADV_SEQUENTIAL).
/// When the mapping is refused — address-space cap, filesystem without
/// mmap, or the `source.mmap` failpoint — Open falls back to the
/// ChunkedBinaryDataSource pread path instead of failing; using_mmap()
/// reports which mode is live. Move-only: chunks point into the mapping,
/// so the source must outlive every scan (same contract as
/// MemoryDataSource).
class MmapFileDataSource : public DataSource {
 public:
  /// Opens `path`, validates the header, and maps the file (or arms the
  /// pread fallback; see class comment).
  [[nodiscard]] static Result<MmapFileDataSource> Open(
      const std::string& path);

  MmapFileDataSource(MmapFileDataSource&&) = default;
  MmapFileDataSource& operator=(MmapFileDataSource&&) = default;

  std::string Name() const override { return file_.Name(); }
  size_t NumPoints() const override { return file_.NumPoints(); }
  size_t NumDims() const override { return file_.NumDims(); }
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  /// True when the mapping is live; false when serving via the pread
  /// fallback.
  bool using_mmap() const { return region_.valid(); }

 private:
  explicit MmapFileDataSource(ChunkedBinaryDataSource file)
      : file_(std::move(file)) {}

  /// First value of point `i`, served from the mapping. Valid only when
  /// using_mmap(). The header is 8-byte aligned (dataset_io.h), so the
  /// cast is aligned.
  const double* Row(size_t i) const;

  /// The file's geometry, and its scans when the mapping was refused.
  ChunkedBinaryDataSource file_;
  MmapRegion region_;
};

}  // namespace mrcc

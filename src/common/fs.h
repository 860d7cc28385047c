// Low-level file primitives for the out-of-core readers.
//
// The binary dataset path used std::ifstream, which hides *why* a read
// came up short: a signal-interrupted read, a transient error and a
// truncated file all collapse into failbit. Production streaming needs
// the distinction — EINTR must be retried invisibly, transient errors
// retried with bounded backoff, and truncation reported with the exact
// byte offset so an operator can locate the damage. These helpers wrap
// positional POSIX reads (pread) with exactly that contract; pread also
// removes the shared-file-position hazard, so scans over one file
// descriptor could even share it safely.
//
// Fault injection: ReadExactAt honors the `source.read.transient` (fails
// an attempt like an interrupted/temporarily-failing syscall; exercises
// the retry loop) and `source.read.truncate` (simulates end-of-file;
// exercises the truncation path) failpoints.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace mrcc {

/// Owning POSIX file descriptor (move-only; closes on destruction).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd();

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Opens `path` read-only. NotFound for a missing file, IOError otherwise.
[[nodiscard]] Result<UniqueFd> OpenForRead(const std::string& path);

/// Read-only memory mapping of a file prefix (move-only; unmaps on
/// destruction). The mapping is advised MADV_SEQUENTIAL: the streaming
/// build touches every page exactly once in order, so aggressive
/// readahead wins and touched pages can be dropped early.
///
/// Fault injection: Map honors the `source.mmap` failpoint (simulates a
/// kernel refusal — address-space cap, filesystem without mmap support);
/// callers are expected to fall back to the positional-read path.
class MmapRegion {
 public:
  MmapRegion() = default;
  ~MmapRegion();

  MmapRegion(MmapRegion&& other) noexcept;
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  /// Maps the first `length` bytes of `fd` (must be > 0). The fd may be
  /// closed after mapping; the mapping stays valid until destruction.
  [[nodiscard]] static Result<MmapRegion> Map(int fd, size_t length,
                                              const std::string& path);

  bool valid() const { return addr_ != nullptr; }
  const unsigned char* data() const {
    return static_cast<const unsigned char*>(addr_);
  }
  size_t size() const { return length_; }

  /// Advises the kernel that [offset, offset + length) will be read soon
  /// (MADV_WILLNEED), so page-in starts before the first touch. Advisory
  /// and clamped to the mapping: out-of-range requests shrink to fit and
  /// a kernel that ignores the hint costs nothing. No-op when !valid().
  void WillNeed(size_t offset, size_t length) const;

 private:
  MmapRegion(void* addr, size_t length) : addr_(addr), length_(length) {}

  void* addr_ = nullptr;
  size_t length_ = 0;
};

/// Size of the open file in bytes.
[[nodiscard]] Result<uint64_t> FileSize(int fd, const std::string& path);

/// Number of transient-retry attempts ReadExactAt makes before giving up
/// (EINTR loops are unbounded and not counted — an interrupted syscall is
/// not a failure).
inline constexpr int kMaxReadRetries = 3;

/// Reads exactly `n` bytes at `offset` into `buf`.
///   - Partial reads continue where they left off (a pipe-backed or
///     networked filesystem may return fewer bytes than asked).
///   - EINTR retries immediately, without limit.
///   - Other transient errno values (EAGAIN) retry up to kMaxReadRetries
///     times with exponential backoff, then surface as IOError.
///   - End-of-file before `n` bytes is IOError naming `path` and the
///     exact byte offset where data ran out.
/// `path` is used for error messages only.
[[nodiscard]] Status ReadExactAt(int fd, void* buf, size_t n, uint64_t offset,
                   const std::string& path);

/// Seed ("offset basis") of the 64-bit FNV-1a hash below.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// 64-bit FNV-1a over `n` bytes, continuing from `seed`. This is the
/// fingerprint hash of the build manifest: dependency-free and stable
/// across platforms, but byte-serial (about 0.5 bytes per cycle), so use
/// WordChecksum for multi-megabyte buffers. Chain calls by passing the
/// previous return value as `seed`.
uint64_t Fnv1a(const void* data, size_t n, uint64_t seed = kFnvOffsetBasis);

/// 64-bit checksum of the shard-artifact footer (src/dist/shard_io.h),
/// word-at-a-time. The buffer's whole 8-byte words (at offsets 0, 8,
/// 16, ... from its start, in host byte order) feed four independent
/// lanes round-robin; each lane step is lane' = rotl(lane + w * P2, 31)
/// * P1 with odd P1 and P2. The remaining 0-7 tail bytes, zero-padded
/// to one word, and the length `n` are folded into the lanes' combine.
/// Every step is a bijection of the value it updates, so any change
/// confined to one 8-byte word (or to the tail) changes the sum. This
/// function's values are part of the artifact format: changing them
/// needs a new kShardFormatVersion.
uint64_t WordChecksum(const void* data, size_t n);

/// Atomically replaces `path` with `contents`: writes to a temporary
/// file in the same directory, fsyncs it, renames it over `path`, then
/// fsyncs the directory so the rename itself is durable. A crash (even
/// SIGKILL) at any instant leaves either the old file or the complete
/// new one — never a torn mix; at worst a stale `<path>.tmp.<pid>` file
/// survives, which a rerun simply overwrites. This is the only sanctioned
/// way to publish an artifact another process may read (tree files, shard
/// artifacts, manifests, result JSON, reports).
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     const std::string& contents);

/// Reads all of `path` into a string (NotFound surfaces as IOError, like
/// every loader in this repo; see OpenForRead).
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// Creates `path` and any missing parents (mkdir -p semantics). An
/// existing directory is success; an existing non-directory at any
/// component is IOError.
[[nodiscard]] Status MakeDirs(const std::string& path);

/// Asks the kernel to drop `path`'s cached pages (posix_fadvise
/// POSIX_FADV_DONTNEED). Best effort: tmpfs and some filesystems ignore
/// the hint, and an unsupported advice is not an error. The cold-cache
/// benches use this so a repeated scan measures device reads, not page
/// cache hits.
[[nodiscard]] Status DropFileCache(const std::string& path);

}  // namespace mrcc

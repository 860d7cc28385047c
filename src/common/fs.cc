#include "common/fs.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace mrcc {
namespace {

/// Backoff before transient-retry `attempt` (1-based): 200us, 400us,
/// 800us. Long enough to ride out scheduler-tick-scale hiccups, short
/// enough that a failing read costs ~1.4ms before surfacing.
void BackoffSleep(int attempt) {
  std::this_thread::sleep_for(std::chrono::microseconds(200) * (1 << attempt));
}

std::string ErrnoMessage(const std::string& what, const std::string& path,
                         int err) {
  return what + " " + path + ": " + std::system_category().message(err);
}

}  // namespace

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<UniqueFd> OpenForRead(const std::string& path) {
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.open"));
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    // ENOENT included: every loader in this repo reports a missing file
    // as IOError (see dataset_io), and callers match on that.
    return Status::IOError(ErrnoMessage("cannot open", path, errno));
  }
  return UniqueFd(fd);
}

MmapRegion::~MmapRegion() {
  if (addr_ != nullptr) ::munmap(addr_, length_);
}

MmapRegion::MmapRegion(MmapRegion&& other) noexcept
    : addr_(other.addr_), length_(other.length_) {
  other.addr_ = nullptr;
  other.length_ = 0;
}

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, length_);
    addr_ = other.addr_;
    length_ = other.length_;
    other.addr_ = nullptr;
    other.length_ = 0;
  }
  return *this;
}

Result<MmapRegion> MmapRegion::Map(int fd, size_t length,
                                   const std::string& path) {
  if (length == 0) {
    return Status::InvalidArgument("cannot map empty file " + path);
  }
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.mmap"));
  void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("cannot mmap", path, errno));
  }
  // Advisory only: a kernel that rejects the hint still serves the pages.
  (void)::madvise(addr, length, MADV_SEQUENTIAL);
  return MmapRegion(addr, length);
}

void MmapRegion::WillNeed(size_t offset, size_t length) const {
  if (addr_ == nullptr || offset >= length_ || length == 0) return;
  length = std::min(length, length_ - offset);
  // madvise wants a page-aligned start; round the offset down (the extra
  // prefix pages are already resident or about to be).
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t aligned = offset & ~(page - 1);
  (void)::madvise(static_cast<char*>(addr_) + aligned,
                  length + (offset - aligned), MADV_WILLNEED);
}

Result<uint64_t> FileSize(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError(ErrnoMessage("cannot stat", path, errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status ReadExactAt(int fd, void* buf, size_t n, uint64_t offset,
                   const std::string& path) {
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  int retries = 0;
  while (done < n) {
    // Injected truncation: pretend the file ends here.
    ssize_t got;
    if (fp::MaybeTrue("source.read.truncate")) {
      got = 0;
    } else if (fp::MaybeTrue("source.read.transient")) {
      got = -1;
      errno = EAGAIN;
    } else {
      got = ::pread(fd, out + done, n - done,
                    static_cast<off_t>(offset + done));
    }
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;  // Partial read: keep going from where it stopped.
    }
    if (got == 0) {
      return Status::IOError(
          "truncated file " + path + ": data ends at byte " +
          std::to_string(offset + done) + " (needed " + std::to_string(n) +
          " bytes at offset " + std::to_string(offset) + ")");
    }
    if (errno == EINTR) {
      // A delivered signal, not a failure: retry without limit or delay.
      MetricsRegistry::Global().counter("io.eintr_retries").Increment();
      continue;
    }
    if (errno == EAGAIN && retries < kMaxReadRetries) {
      ++retries;
      MetricsRegistry::Global().counter("io.read_retries").Increment();
      BackoffSleep(retries);
      continue;
    }
    return Status::IOError(
        ErrnoMessage("read failed", path, errno) + " at byte " +
        std::to_string(offset + done) +
        (retries > 0 ? " after " + std::to_string(retries) + " retries"
                     : ""));
  }
  return Status::OK();
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// The xxHash64 primes: odd, so multiplying by one is a bijection.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;

/// One lane step: a bijection of `lane` for a fixed word and of `word`
/// for a fixed lane.
uint64_t LaneStep(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

uint64_t WordChecksum(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // Distinct seeds, so equal words in different lanes do not cancel.
  uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  const size_t words = n / sizeof(uint64_t);
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const unsigned char* stripe = p + w * sizeof(uint64_t);
    lane[0] = LaneStep(lane[0], LoadWord(stripe));
    lane[1] = LaneStep(lane[1], LoadWord(stripe + 8));
    lane[2] = LaneStep(lane[2], LoadWord(stripe + 16));
    lane[3] = LaneStep(lane[3], LoadWord(stripe + 24));
  }
  for (; w < words; ++w) {
    lane[w % 4] = LaneStep(lane[w % 4], LoadWord(p + w * sizeof(uint64_t)));
  }
  // Each lane enters through its own rotation, so the combine is a
  // bijection of any one lane with the other three fixed.
  uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
               std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  uint64_t tail = 0;
  if (n % sizeof(uint64_t) != 0) {
    std::memcpy(&tail, p + words * sizeof(uint64_t), n % sizeof(uint64_t));
  }
  h = LaneStep(h, tail) + static_cast<uint64_t>(n);
  // xxHash64's avalanche: each line is invertible.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

namespace {

/// Writes all of `contents` to `fd`, riding out EINTR and partial writes.
Status WriteAll(int fd, const std::string& contents,
                const std::string& path) {
  size_t done = 0;
  while (done < contents.size()) {
    const ssize_t wrote =
        ::write(fd, contents.data() + done, contents.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed", path, errno));
    }
    done += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  // The temp file lives in the same directory so the rename cannot cross
  // a filesystem boundary (rename is only atomic within one). The pid
  // suffix keeps concurrent writers of different targets from colliding;
  // concurrent writers of the *same* target race benignly — rename is
  // last-writer-wins with each side complete.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int raw = -1;
  do {
    raw = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (raw < 0 && errno == EINTR);
  if (raw < 0) {
    return Status::IOError(ErrnoMessage("cannot open", tmp, errno));
  }
  UniqueFd fd(raw);
  Status status = WriteAll(fd.get(), contents, tmp);
  // Durability order matters: the data must be on disk before the rename
  // publishes it, or a crash could publish a name pointing at zeroes.
  if (status.ok() && ::fsync(fd.get()) != 0) {
    status = Status::IOError(ErrnoMessage("fsync failed", tmp, errno));
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError(ErrnoMessage("cannot rename", tmp, errno) +
                             " over " + path);
  }
  if (!status.ok()) {
    (void)::unlink(tmp.c_str());  // Best effort; a leftover tmp is benign.
    return status;
  }
  // fsync the directory so the rename entry itself survives a crash.
  // Failure here is reported: the caller was promised durability.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  Result<UniqueFd> dir_fd = OpenForRead(dir);
  if (!dir_fd.ok()) return dir_fd.status();
  if (::fsync(dir_fd->get()) != 0 && errno != EINVAL) {
    // EINVAL: the filesystem does not support directory fsync (some
    // network mounts); the rename is still atomic, just not yet durable.
    return Status::IOError(ErrnoMessage("fsync failed", dir, errno));
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  Result<uint64_t> size = FileSize(fd->get(), path);
  if (!size.ok()) return size.status();
  std::string contents(static_cast<size_t>(*size), '\0');
  if (*size > 0) {
    MRCC_RETURN_IF_ERROR(
        ReadExactAt(fd->get(), contents.data(), contents.size(), 0, path));
  }
  return contents;
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::OK();
  // Walk the components left to right, creating each prefix. EEXIST is
  // checked against the actual file type: a plain file squatting on a
  // component must fail, not pass as "already there".
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? path : path.substr(0, pos);
    if (prefix.empty() || prefix == "." || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0777) == 0) continue;
    const int err = errno;
    struct stat st;
    if (err == EEXIST && ::stat(prefix.c_str(), &st) == 0 &&
        S_ISDIR(st.st_mode)) {
      continue;
    }
    return Status::IOError(ErrnoMessage("cannot create directory", prefix,
                                        err));
  }
  return Status::OK();
}

Status DropFileCache(const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  // Dirty pages are not dropped; flush them first so the advice bites.
  (void)::fsync(fd->get());
  const int err = ::posix_fadvise(fd->get(), 0, 0, POSIX_FADV_DONTNEED);
  // EINVAL/ENOSYS mean the filesystem does not support the advice (tmpfs,
  // some network mounts) — the cache simply stays warm, which is not a
  // failure of the caller's scan.
  if (err != 0 && err != EINVAL && err != ENOSYS) {
    return Status::IOError(ErrnoMessage("fadvise failed", path, err));
  }
  return Status::OK();
}

}  // namespace mrcc

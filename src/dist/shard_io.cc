#include "dist/shard_io.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "core/tree_io.h"

namespace mrcc {
namespace dist {
namespace {

constexpr char kMagic[4] = {'M', 'R', 'S', 'H'};
// points_skipped, points_clamped, then the tail every version shares:
// magic, version, begin, end, point_count, tree length, checksum.
constexpr size_t kTailBytes = sizeof(kMagic) + sizeof(uint32_t) +
                              5 * sizeof(uint64_t);
constexpr size_t kFooterBytes = 2 * sizeof(uint64_t) + kTailBytes;

template <typename T>
T ReadPod(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string SerializeShardArtifact(const CountingTree& tree,
                                   const ShardMeta& meta) {
  // The footer's room is reserved behind the tree bytes, so appending it
  // never copies the tree stream.
  std::string bytes = SerializeTree(tree, kFooterBytes);
  const uint64_t tree_len = bytes.size();
  const auto append = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append(meta.points_skipped);
  append(meta.points_clamped);
  append(kMagic);
  append(kShardFormatVersion);
  append(meta.begin);
  append(meta.end);
  append(meta.point_count);
  append(tree_len);
  append(WordChecksum(bytes.data(), bytes.size()));
  return bytes;
}

Status WriteShardArtifact(const CountingTree& tree, const ShardMeta& meta,
                          const std::string& path) {
  MRCC_RETURN_IF_ERROR(fp::Maybe("shard.write"));
  const std::string bytes = SerializeShardArtifact(tree, meta);
  if (const char* hold = std::getenv("MRCC_DIST_HOLD_PUBLISH_MS");
      hold != nullptr && *hold != '\0') {
    // Crash-window widener (see header): the shard's work is done but
    // nothing is published yet — exactly where a kill must cost a
    // rebuild and nothing else.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::strtol(hold, nullptr, 10)));
  }
  return WriteFileAtomic(path, bytes);
}

namespace {

/// Checks artifact bytes up to the embedded tree: the footer's shape and
/// version, the checksum over everything before it, and the footer's
/// own consistency. Returns the footer's meta.
Result<ShardMeta> VerifyShardArtifact(std::string_view bytes,
                                      const std::string& path) {
  if (bytes.size() < kFooterBytes) {
    return Status::IOError(
        "truncated shard artifact " + path + ": " +
        std::to_string(bytes.size()) + " bytes, footer alone needs " +
        std::to_string(kFooterBytes));
  }
  const char* footer = bytes.data() + bytes.size() - kFooterBytes;
  const char* tail = bytes.data() + bytes.size() - kTailBytes;
  if (std::memcmp(tail, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad footer magic in shard artifact " + path +
                           ": expected \"MRSH\" at byte " +
                           std::to_string(bytes.size() - kTailBytes));
  }
  const uint32_t version = ReadPod<uint32_t>(tail + 4);
  if (version != kShardFormatVersion) {
    return Status::IOError(
        "unsupported shard artifact version " + std::to_string(version) +
        " in " + path + " (reader supports " +
        std::to_string(kShardFormatVersion) + ")");
  }
  ShardMeta meta;
  meta.points_skipped = ReadPod<uint64_t>(footer);
  meta.points_clamped = ReadPod<uint64_t>(footer + 8);
  meta.begin = ReadPod<uint64_t>(tail + 8);
  meta.end = ReadPod<uint64_t>(tail + 16);
  meta.point_count = ReadPod<uint64_t>(tail + 24);
  const uint64_t tree_len = ReadPod<uint64_t>(tail + 32);
  const uint64_t stored_sum = ReadPod<uint64_t>(tail + 40);

  // Verify the checksum before trusting anything else the footer says —
  // a rotted tree_len would otherwise steer the slice below.
  uint64_t computed =
      WordChecksum(bytes.data(), bytes.size() - sizeof(uint64_t));
  if (fp::MaybeTrue("shard.checksum")) {
    computed = ~computed;  // Simulated bit rot the trailer must catch.
  }
  if (computed != stored_sum) {
    MetricsRegistry::Global().counter("shard.checksum_failures").Increment();
    return Status::IOError("checksum mismatch in shard artifact " + path +
                           ": stored " + Hex(stored_sum) + ", computed " +
                           Hex(computed));
  }
  if (tree_len != bytes.size() - kFooterBytes) {
    return Status::IOError(
        "inconsistent shard artifact " + path + ": footer claims " +
        std::to_string(tree_len) + " tree bytes, file holds " +
        std::to_string(bytes.size() - kFooterBytes));
  }
  if (meta.begin >= meta.end || meta.point_count != meta.end - meta.begin) {
    return Status::IOError(
        "inconsistent shard artifact " + path + ": partition [" +
        std::to_string(meta.begin) + ", " + std::to_string(meta.end) +
        ") does not match point count " + std::to_string(meta.point_count));
  }
  if (meta.points_skipped > meta.point_count ||
      meta.points_clamped > meta.point_count - meta.points_skipped) {
    return Status::IOError(
        "inconsistent shard artifact " + path + ": " +
        std::to_string(meta.points_skipped) + " skipped and " +
        std::to_string(meta.points_clamped) + " clamped of " +
        std::to_string(meta.point_count) + " points");
  }
  return meta;
}

}  // namespace

Result<ShardArtifact> ParseShardArtifact(const std::string& bytes,
                                         const std::string& path) {
  Result<ShardMeta> meta = VerifyShardArtifact(bytes, path);
  MRCC_RETURN_IF_ERROR(meta.status());
  const size_t tree_len = bytes.size() - kFooterBytes;
  // The tree stream is parsed in place: no copy of the (multi-megabyte)
  // tree bytes is made on the way to ParseTree.
  Result<CountingTree> tree =
      ParseTree(std::string_view(bytes).substr(0, tree_len), path);
  MRCC_RETURN_IF_ERROR(tree.status());
  return ShardArtifact{std::move(*tree), *meta};
}

Result<ShardArtifact> ReadShardArtifact(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  MRCC_RETURN_IF_ERROR(bytes.status());
  return ParseShardArtifact(*bytes, path);
}

Result<ShardMeta> ReadShardMeta(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  MRCC_RETURN_IF_ERROR(bytes.status());
  return VerifyShardArtifact(*bytes, path);
}

}  // namespace dist
}  // namespace mrcc

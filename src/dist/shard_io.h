// Checksummed shard artifacts: one Counting-tree built over a contiguous
// point partition, published as a single file another process can trust.
//
// Layout (format version 2): the SerializeTree byte stream
// (core/tree_io.h), followed by a fixed 64-byte footer:
//
//   u64 points_skipped | u64 points_clamped
//   | magic "MRSH" | u32 footer version | u64 begin | u64 end
//   | u64 point_count | u64 tree_bytes_len | u64 checksum
//
// where checksum is WordChecksum (common/fs.h) over every preceding
// byte — tree stream and footer fields alike. The footer rides at the
// *end* so a writer streams the tree bytes once and appends; the reader
// finds it at size-64 without parsing the tree first. The last 48 bytes
// have the same shape in every version (version 1's footer was exactly
// them, with an FNV-1a checksum), so the reader finds the magic and the
// version at size-48 and rejects an artifact of another version by
// name, before checking its checksum.
//
// Two independent defenses reject a damaged artifact:
//   - the checksum catches bit rot and torn tails anywhere in the file;
//   - ParseTree rejects every proper prefix and all trailing garbage of
//     the embedded stream (proven byte-by-byte in tree_io_test).
// Publication itself is atomic (WriteFileAtomic), so a SIGKILL mid-write
// leaves no file at all rather than a torn one — the checksum is the
// backstop for storage-level damage after a successful publish.
//
// Fault injection: WriteShardArtifact honors `shard.write` (publication
// fails); ReadShardArtifact honors `shard.checksum` (boolean — the
// verification reports a mismatch as if the bytes had rotted, exercising
// the merger's rebuild recovery).

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/counting_tree.h"

namespace mrcc {
namespace dist {

inline constexpr uint32_t kShardFormatVersion = 2;

/// Identity of one shard: which contiguous slice [begin, end) of the
/// dataset's points it counted. point_count == end - begin always (it is
/// stored redundantly as a cheap cross-check; the tree's total_points
/// may be lower when a skip policy dropped bad rows).
struct ShardMeta {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t point_count = 0;

  /// The slice's points dropped / clamped by the bad-point policy while
  /// its tree was built (ScanTally), so a merger reports what a
  /// single-process run over the same file reports.
  uint64_t points_skipped = 0;
  uint64_t points_clamped = 0;
};

/// A loaded-and-verified artifact.
struct ShardArtifact {
  CountingTree tree;
  ShardMeta meta;
};

/// Serializes tree + footer into the artifact byte stream.
std::string SerializeShardArtifact(const CountingTree& tree,
                                   const ShardMeta& meta);

/// Publishes `tree` as the artifact for partition `meta` at `path`,
/// atomically. Honors the `shard.write` failpoint. The test-only env
/// MRCC_DIST_HOLD_PUBLISH_MS, when set, sleeps that many milliseconds
/// between serializing and publishing — it widens the built-but-not-yet-
/// published window so the SIGKILL harness can land a kill inside it
/// deterministically.
[[nodiscard]] Status WriteShardArtifact(const CountingTree& tree,
                                        const ShardMeta& meta,
                                        const std::string& path);

/// Parses and verifies artifact bytes (footer shape, checksum, embedded
/// tree). `path` is for error messages only.
[[nodiscard]] Result<ShardArtifact> ParseShardArtifact(
    const std::string& bytes, const std::string& path);

/// Loads and verifies the artifact at `path`. Failures are IOError:
/// missing file, short file, another format version (the message names
/// both), checksum mismatch (also counted in the
/// `shard.checksum_failures` metric), or a tree that does not parse.
[[nodiscard]] Result<ShardArtifact> ReadShardArtifact(
    const std::string& path);

/// ReadShardArtifact without the tree: reads the file, checks the footer
/// (magic, version, partition, counts) and the checksum, and returns the
/// footer's meta with the same errors. The embedded tree is not parsed,
/// so bytes that checksum correctly but encode a corrupt tree pass here
/// and fail ReadShardArtifact.
[[nodiscard]] Result<ShardMeta> ReadShardMeta(const std::string& path);

}  // namespace dist
}  // namespace mrcc

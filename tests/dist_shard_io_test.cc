// Suite of dist/shard_io.h: the checksummed shard-artifact format. The
// load-bearing property is that NO damaged artifact is ever accepted —
// proven by truncating at every byte and flipping every byte — and that
// an artifact of another format version is refused by name. The
// footer's checksum, WordChecksum, has its own properties pinned below.

#include "dist/shard_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/tree_io.h"
#include "test_util.h"

namespace mrcc {
namespace dist {
namespace {

class ShardIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small on purpose: the byte-sweep tests parse O(bytes) variants.
    data_ = testing::SmallClustered(300, 4, 2, 31).data;
    Result<CountingTree> tree = CountingTree::Build(data_, 3);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::make_unique<CountingTree>(std::move(*tree));
    meta_.begin = 0;
    meta_.end = data_.NumPoints();
    meta_.point_count = data_.NumPoints();
    path_ = testing::UniqueTempPath("mrcc_shard_io_test") + ".tree";
  }
  void TearDown() override {
    fp::DisarmAll();
    std::remove(path_.c_str());
  }

  Dataset data_;
  std::unique_ptr<CountingTree> tree_;
  ShardMeta meta_;
  std::string path_;
};

TEST_F(ShardIoTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteShardArtifact(*tree_, meta_, path_).ok());
  Result<ShardArtifact> loaded = ReadShardArtifact(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.begin, meta_.begin);
  EXPECT_EQ(loaded->meta.end, meta_.end);
  EXPECT_EQ(loaded->meta.point_count, meta_.point_count);
  EXPECT_EQ(SerializeTree(loaded->tree), SerializeTree(*tree_));
}

TEST_F(ShardIoTest, SkipAndClampCountsRoundTrip) {
  ShardMeta meta = meta_;
  meta.points_skipped = 7;
  meta.points_clamped = 11;
  Result<ShardArtifact> parsed =
      ParseShardArtifact(SerializeShardArtifact(*tree_, meta), "x");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.points_skipped, 7u);
  EXPECT_EQ(parsed->meta.points_clamped, 11u);

  // More skipped and clamped points than the partition holds cannot be.
  meta.points_clamped = meta.point_count - meta.points_skipped + 1;
  Result<ShardArtifact> bad =
      ParseShardArtifact(SerializeShardArtifact(*tree_, meta), "x");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("clamped"), std::string::npos)
      << bad.status().ToString();
}

TEST_F(ShardIoTest, VersionOneArtifactIsRejectedByName) {
  const std::string v1 = testing::VersionOneShardArtifact(
      SerializeTree(*tree_), meta_.begin, meta_.end);
  Result<ShardArtifact> parsed = ParseShardArtifact(v1, "v1.tree");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
  EXPECT_NE(parsed.status().message().find(
                "unsupported shard artifact version 1 in v1.tree (reader "
                "supports 2)"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST_F(ShardIoTest, MetaForInteriorPartitionRoundTrips) {
  ShardMeta meta;
  meta.begin = 100;
  meta.end = 250;
  meta.point_count = 150;
  const std::string bytes = SerializeShardArtifact(*tree_, meta);
  Result<ShardArtifact> parsed = ParseShardArtifact(bytes, "x");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.begin, 100u);
  EXPECT_EQ(parsed->meta.end, 250u);
}

TEST_F(ShardIoTest, EveryTruncationRejected) {
  const std::string bytes = SerializeShardArtifact(*tree_, meta_);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<ShardArtifact> parsed =
        ParseShardArtifact(bytes.substr(0, len), "t.tree");
    ASSERT_FALSE(parsed.ok()) << "accepted a " << len << "-byte prefix of a "
                              << bytes.size() << "-byte artifact";
    EXPECT_EQ(parsed.status().code(), StatusCode::kIOError) << "at " << len;
  }
}

TEST_F(ShardIoTest, EverySingleByteFlipRejected) {
  const std::string bytes = SerializeShardArtifact(*tree_, meta_);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    Result<ShardArtifact> parsed = ParseShardArtifact(mutated, "t.tree");
    ASSERT_FALSE(parsed.ok())
        << "accepted artifact with byte " << i << " flipped";
  }
}

TEST_F(ShardIoTest, TrailingGarbageRejected) {
  std::string bytes = SerializeShardArtifact(*tree_, meta_);
  bytes += "extra";
  // The appended bytes displace the footer window; whatever the parser
  // trips on first, it must not accept the file.
  EXPECT_FALSE(ParseShardArtifact(bytes, "t.tree").ok());
}

TEST_F(ShardIoTest, ChecksumMismatchNamesStoredAndComputed) {
  std::string bytes = SerializeShardArtifact(*tree_, meta_);
  bytes[10] = static_cast<char>(bytes[10] ^ 0xff);  // Rot inside the tree.
  Result<ShardArtifact> parsed = ParseShardArtifact(bytes, "rot.tree");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(
                "checksum mismatch in shard artifact rot.tree"),
            std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("stored 0x"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("computed 0x"), std::string::npos);
}

TEST_F(ShardIoTest, ChecksumFailureIncrementsMetric) {
  std::string bytes = SerializeShardArtifact(*tree_, meta_);
  bytes[3] = static_cast<char>(bytes[3] ^ 0x01);
  auto& counter =
      MetricsRegistry::Global().counter("shard.checksum_failures");
  const int64_t before = counter.value();
  EXPECT_FALSE(ParseShardArtifact(bytes, "x").ok());
  EXPECT_EQ(counter.value(), before + 1);
}

TEST_F(ShardIoTest, BadPartitionMetaRejected) {
  ShardMeta bad;
  bad.begin = 10;
  bad.end = 10;  // Empty range.
  bad.point_count = 0;
  const std::string bytes = SerializeShardArtifact(*tree_, bad);
  Result<ShardArtifact> parsed = ParseShardArtifact(bytes, "x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("partition"), std::string::npos);

  ShardMeta mismatched;
  mismatched.begin = 0;
  mismatched.end = 100;
  mismatched.point_count = 99;  // != end - begin.
  EXPECT_FALSE(
      ParseShardArtifact(SerializeShardArtifact(*tree_, mismatched), "x")
          .ok());
}

TEST_F(ShardIoTest, ReadMissingFileIsIOError) {
  Result<ShardArtifact> r = ReadShardArtifact("/nonexistent/shard.tree");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(ShardIoTest, WriteFailpointFailsPublication) {
  fp::ScopedArm arm("shard.write");
  const Status status = WriteShardArtifact(*tree_, meta_, path_);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // Nothing published: the failpoint fires before any bytes hit disk.
  EXPECT_FALSE(ReadShardArtifact(path_).ok());
}

TEST_F(ShardIoTest, ChecksumFailpointSimulatesRot) {
  ASSERT_TRUE(WriteShardArtifact(*tree_, meta_, path_).ok());
  {
    fp::ScopedArm arm("shard.checksum");
    Result<ShardArtifact> r = ReadShardArtifact(path_);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("checksum mismatch"),
              std::string::npos);
  }
  // Disarmed, the same file verifies again — the bytes were never bad.
  EXPECT_TRUE(ReadShardArtifact(path_).ok());
}

// ---- WordChecksum (common/fs.h), the footer's checksum. Its values are
// part of the artifact format.

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
  return bytes;
}

TEST(WordChecksumTest, EverySingleBitFlipChangesTheSum) {
  std::string bytes = RandomBytes(4096, 1);
  const uint64_t sum = WordChecksum(bytes.data(), bytes.size());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_NE(WordChecksum(bytes.data(), bytes.size()), sum) << "bit " << bit;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  }
}

TEST(WordChecksumTest, SwappingAnyTwoDistinctWordsChangesTheSum) {
  std::string bytes = RandomBytes(4096, 2);
  const uint64_t sum = WordChecksum(bytes.data(), bytes.size());
  const size_t words = bytes.size() / 8;
  for (size_t a = 0; a < words; ++a) {
    for (size_t b = a + 1; b < words; ++b) {
      char* wa = bytes.data() + a * 8;
      char* wb = bytes.data() + b * 8;
      if (std::memcmp(wa, wb, 8) == 0) continue;
      std::swap_ranges(wa, wa + 8, wb);
      ASSERT_NE(WordChecksum(bytes.data(), bytes.size()), sum)
          << "words " << a << " and " << b;
      std::swap_ranges(wa, wa + 8, wb);
    }
  }
}

TEST(WordChecksumTest, EveryLengthUpToSixtyFourCoversItsTail) {
  // Lengths 0-64 cover empty input, tail-only input, whole stripes and
  // each of the 1-3 leftover words with every tail length.
  const std::string bytes = RandomBytes(64, 3);
  const std::string zeros(64, '\0');
  std::set<uint64_t> prefix_sums, zero_sums;
  for (size_t n = 0; n <= 64; ++n) {
    SCOPED_TRACE("length " + std::to_string(n));
    prefix_sums.insert(WordChecksum(bytes.data(), n));
    // Zero bytes pad the tail, so only the folded-in length tells these
    // apart.
    zero_sums.insert(WordChecksum(zeros.data(), n));
    std::string copy = bytes.substr(0, n);
    const uint64_t sum = WordChecksum(copy.data(), n);
    for (size_t bit = 0; bit < n * 8; ++bit) {
      copy[bit / 8] = static_cast<char>(copy[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(WordChecksum(copy.data(), n), sum) << "bit " << bit;
      copy[bit / 8] = static_cast<char>(copy[bit / 8] ^ (1 << (bit % 8)));
    }
  }
  EXPECT_EQ(prefix_sums.size(), 65u);
  EXPECT_EQ(zero_sums.size(), 65u);
}

TEST(WordChecksumTest, PinnedValueFreezesTheFormat) {
  // 100 bytes: three full stripes, one leftover word and a 4-byte tail.
  // Both values agree with a separate model written from the definition
  // in common/fs.h.
  std::string bytes(100, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 7 + 3);
  }
  EXPECT_EQ(WordChecksum(bytes.data(), bytes.size()), 0x694330133f2d807aull);
  EXPECT_EQ(WordChecksum(nullptr, 0), 0x5281910c2e425911ull);
}

}  // namespace
}  // namespace dist
}  // namespace mrcc

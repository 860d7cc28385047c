// Suite of dist/shard_io.h: the checksummed shard-artifact format. The
// load-bearing property is that NO damaged artifact is ever accepted —
// proven by truncating at every byte and flipping every byte.

#include "dist/shard_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/metrics.h"
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
  EXPECT_TRUE(TreesEquivalent(*tree_, loaded->tree));
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

}  // namespace
}  // namespace dist
}  // namespace mrcc

// Suite of dist/manifest.h: JSON round trip, structural validation
// (hostile-input sweep), partition planning, fingerprint/params hashing,
// the locked done-bit update, and PrepareManifest's resume/refuse logic.

#include "dist/manifest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/failpoint.h"
#include "common/fs.h"
#include "data/dataset_io.h"
#include "dist/sharded_build.h"
#include "test_util.h"

namespace mrcc {
namespace dist {
namespace {

BuildManifest SampleManifest() {
  BuildManifest m;
  m.dataset_path = "data/points.bin";
  m.fingerprint = 0xdeadbeefcafef00dull;
  m.params_hash = 0x0123456789abcdefull;
  m.num_points = 1000;
  m.num_dims = 8;
  m.shards = PlanPartitions(1000, 3);
  m.shards[1].done = true;
  return m;
}

TEST(BuildManifestTest, JsonRoundTrip) {
  const BuildManifest m = SampleManifest();
  Result<BuildManifest> back = BuildManifest::FromJson(m.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset_path, m.dataset_path);
  EXPECT_EQ(back->fingerprint, m.fingerprint);
  EXPECT_EQ(back->params_hash, m.params_hash);
  EXPECT_EQ(back->num_points, m.num_points);
  EXPECT_EQ(back->num_dims, m.num_dims);
  ASSERT_EQ(back->shards.size(), m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back->shards[i].begin, m.shards[i].begin);
    EXPECT_EQ(back->shards[i].end, m.shards[i].end);
    EXPECT_EQ(back->shards[i].done, m.shards[i].done);
  }
}

TEST(BuildManifestTest, FullRangeHexFieldsRoundTrip) {
  BuildManifest m = SampleManifest();
  m.fingerprint = ~0ull;  // Would lose precision as a JSON double.
  m.params_hash = 1ull << 63;
  Result<BuildManifest> back = BuildManifest::FromJson(m.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->fingerprint, ~0ull);
  EXPECT_EQ(back->params_hash, 1ull << 63);
}

TEST(BuildManifestTest, RejectsStructurallyBrokenManifests) {
  const struct {
    const char* name;
    std::string json;
  } cases[] = {
      {"not JSON", "not json at all"},
      {"not an object", "[1,2,3]"},
      {"no schema_version", R"({"dataset":"d"})"},
      {"future schema", R"({"schema_version":99,"dataset":"d"})"},
      {"no dataset", R"({"schema_version":1})"},
      {"fingerprint not hex",
       R"({"schema_version":1,"dataset":"d","fingerprint":"zzz",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":10}]})"},
      {"fingerprint a number",
       R"({"schema_version":1,"dataset":"d","fingerprint":7,)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":10}]})"},
      {"zero points",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":0,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":10}]})"},
      {"no shards",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,"shards":[]})"},
      {"gap in cover",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":4},{"begin":5,"end":10}]})"},
      {"overlap in cover",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":6},{"begin":5,"end":10}]})"},
      {"empty shard range",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":0},{"begin":0,"end":10}]})"},
      {"cover short of the dataset",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":9}]})"},
      {"cover past the dataset",
       R"({"schema_version":1,"dataset":"d","fingerprint":"0x1",)"
       R"("params_hash":"0x1","num_points":10,"num_dims":2,)"
       R"("shards":[{"begin":0,"end":11}]})"},
  };
  for (const auto& c : cases) {
    Result<BuildManifest> r = BuildManifest::FromJson(c.json);
    EXPECT_FALSE(r.ok()) << "accepted manifest with " << c.name;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.name;
    }
  }
}

TEST(BuildManifestTest, TruncationsNeverCrashAndNeverValidate) {
  const std::string good = SampleManifest().ToJson();
  for (size_t len = 0; len < good.size(); ++len) {
    Result<BuildManifest> r = BuildManifest::FromJson(good.substr(0, len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(PlanPartitionsTest, CoversEveryPointWithoutGaps) {
  for (uint64_t n : {1ull, 2ull, 7ull, 100ull, 1001ull}) {
    for (int shards : {1, 2, 3, 7, 16}) {
      const std::vector<ShardPlan> plan = PlanPartitions(n, shards);
      ASSERT_FALSE(plan.empty());
      EXPECT_LE(plan.size(), static_cast<size_t>(shards));
      uint64_t expect = 0;
      for (const ShardPlan& s : plan) {
        EXPECT_EQ(s.begin, expect);
        EXPECT_GT(s.end, s.begin);  // Never an empty shard.
        expect = s.end;
      }
      EXPECT_EQ(expect, n);
      // Even split: sizes differ by at most one point.
      uint64_t min_size = ~0ull, max_size = 0;
      for (const ShardPlan& s : plan) {
        min_size = std::min(min_size, s.end - s.begin);
        max_size = std::max(max_size, s.end - s.begin);
      }
      EXPECT_LE(max_size - min_size, 1u) << n << " points, " << shards;
    }
  }
}

TEST(PlanPartitionsTest, FewerPointsThanShardsShrinksThePlan) {
  const std::vector<ShardPlan> plan = PlanPartitions(3, 8);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_TRUE(PlanPartitions(0, 4).empty());
}

TEST(HashParamsTest, SensitiveToResultAffectingKnobsOnly) {
  MrCCParams base;
  const uint64_t h = HashParams(base);
  EXPECT_EQ(h, HashParams(base));  // Deterministic.

  MrCCParams alpha = base;
  alpha.alpha = base.alpha * 2;
  EXPECT_NE(HashParams(alpha), h);

  MrCCParams resolutions = base;
  resolutions.num_resolutions = base.num_resolutions + 1;
  EXPECT_NE(HashParams(resolutions), h);

  // Threading and chunking must NOT change the hash: they never change
  // results, and a resume on a different machine shape must be allowed.
  MrCCParams threads = base;
  threads.num_threads = 7;
  threads.chunk_points = 123;
  threads.read_ahead_chunks = 3;
  EXPECT_EQ(HashParams(threads), h);
}

class ManifestFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::UniqueTempPath("mrcc_manifest_test");
    (void)std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
    path_ = dir_ + "/manifest.json";
  }
  void TearDown() override {
    fp::DisarmAll();
    (void)std::system(("rm -rf " + dir_).c_str());
  }

  std::string dir_;
  std::string path_;
};

TEST_F(ManifestFileTest, SaveLoadRoundTrip) {
  const BuildManifest m = SampleManifest();
  ASSERT_TRUE(SaveManifest(m, path_).ok());
  Result<BuildManifest> back = LoadManifest(path_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson(), m.ToJson());
}

TEST_F(ManifestFileTest, LoadErrorNamesTheFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "{}").ok());
  Result<BuildManifest> r = LoadManifest(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("invalid manifest " + path_),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ManifestFileTest, MarkShardDoneFlipsExactlyOneBit) {
  ASSERT_TRUE(SaveManifest(SampleManifest(), path_).ok());
  ASSERT_TRUE(MarkShardDone(path_, 2).ok());
  Result<BuildManifest> back = LoadManifest(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->shards[0].done);
  EXPECT_TRUE(back->shards[1].done);  // Pre-existing bit survives.
  EXPECT_TRUE(back->shards[2].done);
}

TEST_F(ManifestFileTest, MarkShardDoneRejectsOutOfRangeIndex) {
  ASSERT_TRUE(SaveManifest(SampleManifest(), path_).ok());
  const Status status = MarkShardDone(path_, 3);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestFileTest, WriteFailpointFailsSaveAndKeepsOldManifest) {
  ASSERT_TRUE(SaveManifest(SampleManifest(), path_).ok());
  fp::ScopedArm arm("manifest.write");
  EXPECT_EQ(MarkShardDone(path_, 0).code(), StatusCode::kIOError);
  fp::DisarmAll();
  // The pre-failure manifest is intact — atomic publish never tears.
  Result<BuildManifest> back = LoadManifest(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->shards[0].done);
}

class PrepareManifestTest : public ManifestFileTest {
 protected:
  void SetUp() override {
    ManifestFileTest::SetUp();
    data_ = testing::SmallClustered(600, 5, 2, 17).data;
    bin_path_ = dir_ + "/points.bin";
    ASSERT_TRUE(SaveBinary(data_, bin_path_).ok());
    options_.dataset_path = bin_path_;
    options_.work_dir = dir_;
    options_.num_shards = 3;
  }

  Dataset data_;
  std::string bin_path_;
  ShardedBuildOptions options_;
};

TEST_F(PrepareManifestTest, FreshPlanWritesManifest) {
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_points, data_.NumPoints());
  EXPECT_EQ(m->num_dims, data_.NumDims());
  EXPECT_EQ(m->shards.size(), 3u);
  Result<BuildManifest> on_disk = LoadManifest(ManifestPath(dir_));
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->ToJson(), m->ToJson());
}

TEST_F(PrepareManifestTest, CreatesAMissingWorkDirectory) {
  // First run against a work dir nobody mkdir'd — including a missing
  // parent. The CLI tools rely on this: pointing --work-dir at a fresh
  // path must plan, not fail with a temp-file IOError.
  options_.work_dir = dir_ + "/nested/work";
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE(LoadManifest(ManifestPath(options_.work_dir)).ok());
}

TEST_F(PrepareManifestTest, ResumeReusesTheExistingPlan) {
  ASSERT_TRUE(PrepareManifest(options_).ok());
  // A resume asking for a different shard count keeps the planned one:
  // artifacts on disk match the old partition.
  options_.num_shards = 7;
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->shards.size(), 3u);
}

TEST_F(PrepareManifestTest, RefusesStaleFingerprint) {
  ASSERT_TRUE(PrepareManifest(options_).ok());
  // Regenerate the dataset: same shape, different bytes.
  Dataset other = testing::SmallClustered(600, 5, 2, 99).data;
  ASSERT_TRUE(SaveBinary(other, bin_path_).ok());
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find("fingerprint"), std::string::npos)
      << m.status().ToString();
}

TEST_F(PrepareManifestTest, RefusesChangedParams) {
  ASSERT_TRUE(PrepareManifest(options_).ok());
  options_.params.num_resolutions = options_.params.num_resolutions + 1;
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find("params"), std::string::npos)
      << m.status().ToString();
}

TEST_F(PrepareManifestTest, ThreadingChangeIsNotRefused) {
  ASSERT_TRUE(PrepareManifest(options_).ok());
  options_.params.num_threads = 8;
  options_.params.chunk_points = 64;
  EXPECT_TRUE(PrepareManifest(options_).ok());
}

TEST_F(PrepareManifestTest, RefusesCorruptManifest) {
  ASSERT_TRUE(PrepareManifest(options_).ok());
  ASSERT_TRUE(WriteFileAtomic(ManifestPath(dir_), "{\"schema_version\":1}")
                  .ok());
  Result<BuildManifest> m = PrepareManifest(options_);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dist
}  // namespace mrcc

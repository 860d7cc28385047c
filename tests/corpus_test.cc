// Fuzz-style corpus tests for the parsers that consume external bytes:
// the binary dataset readers the pipeline uses (ChunkedBinaryDataSource,
// MmapFileDataSource, LoadBinary — all behind ReadBinaryHeader), the
// BenchRecord JSON reader, the build manifest loader (LoadManifest), the
// Counting-tree reader (ParseTree, LoadTree) and the shard artifact
// loader (footer, checksum, ParseTree, ValidateInvariants).
//
// Contract under test (DESIGN.md §11): any byte sequence either parses
// or returns a non-OK Status. No crash, no abort, no unbounded
// allocation, no sanitizer report. Each committed seed in tests/corpus/
// is parsed as-is, then a deterministic 10,000-iteration loop mutates
// the seeds (byte flips, truncations, splices, extensions) and replays
// them. The Rng seed is fixed so a failing iteration reproduces exactly.
// The shard-artifact seed is built in the test, so it always matches the
// current format.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "core/counting_tree.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "dist/manifest.h"
#include "dist/shard_io.h"
#include "eval/bench_record.h"
#include "test_util.h"

#ifndef MRCC_CORPUS_DIR
#error "tests/CMakeLists.txt must define MRCC_CORPUS_DIR"
#endif

namespace mrcc {
namespace {

std::string CorpusPath(const std::string& rel) {
  return std::string(MRCC_CORPUS_DIR) + "/" + rel;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus seed: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Tests never scan a claimed geometry larger than this: a header the
// parser accepted may still describe more doubles than a unit test
// should materialize.
constexpr uint64_t kScanCap = 1u << 20;

/// Opens `bytes` (written to `path`) with every binary dataset reader
/// and scans what opened; the only acceptable outcomes are success or a
/// clean Status.
void DriveDatasetParsers(const std::string& bytes, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // A source that opened cleanly must scan cleanly: Open() validated the
  // file size against the header up front.
  const auto scan = [](const DataSource& source) {
    if (source.NumDims() > kScanCap || source.NumPoints() > kScanCap) return;
    const Status status = source.ScanChunks(
        0, source.NumPoints(), 64,
        [](size_t, std::span<const double>) { return Status::OK(); });
    EXPECT_TRUE(status.ok()) << status.ToString();
  };
  const Result<ChunkedBinaryDataSource> chunked =
      ChunkedBinaryDataSource::Open(path);
  if (chunked.ok()) scan(*chunked);
  const Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  EXPECT_EQ(mapped.ok(), chunked.ok()) << "the readers disagree on a header";
  if (mapped.ok()) scan(*mapped);
  std::vector<int> labels;
  const Result<Dataset> loaded = LoadBinary(path, &labels);
  if (loaded.ok()) {
    EXPECT_TRUE(chunked.ok());
    EXPECT_LE(loaded->NumPoints() * loaded->NumDims(),
              bytes.size() / sizeof(double));
  }
}

/// Applies 1–8 random byte-level mutations to `bytes`.
std::string Mutate(std::string bytes, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.UniformInt(8));
  for (int e = 0; e < edits; ++e) {
    switch (rng.UniformInt(5)) {
      case 0:  // Flip one bit.
        if (!bytes.empty()) {
          const size_t i = rng.UniformInt(bytes.size());
          bytes[i] = static_cast<char>(
              static_cast<unsigned char>(bytes[i]) ^
              (1u << rng.UniformInt(8)));
        }
        break;
      case 1:  // Overwrite one byte.
        if (!bytes.empty()) {
          bytes[rng.UniformInt(bytes.size())] =
              static_cast<char>(rng.UniformInt(256));
        }
        break;
      case 2:  // Truncate.
        if (!bytes.empty()) bytes.resize(rng.UniformInt(bytes.size()));
        break;
      case 3: {  // Insert a short run of random bytes.
        const size_t at = bytes.empty() ? 0 : rng.UniformInt(bytes.size());
        const size_t len = 1 + rng.UniformInt(8);
        std::string chunk(len, '\0');
        for (char& c : chunk) c = static_cast<char>(rng.UniformInt(256));
        bytes.insert(at, chunk);
        break;
      }
      case 4:  // Duplicate a slice to elsewhere (splice).
        if (bytes.size() >= 2) {
          const size_t from = rng.UniformInt(bytes.size() - 1);
          const size_t len =
              1 + rng.UniformInt(std::min<size_t>(16, bytes.size() - from));
          bytes.insert(rng.UniformInt(bytes.size()),
                       bytes.substr(from, len));
        }
        break;
    }
  }
  return bytes;
}

std::vector<std::string> LoadSeeds(const std::string& subdir,
                                   const std::vector<std::string>& names) {
  std::vector<std::string> seeds;
  for (const std::string& name : names) {
    seeds.push_back(ReadFileOrDie(CorpusPath(subdir + "/" + name)));
  }
  return seeds;
}

const std::vector<std::string>& DatasetSeedNames() {
  static const auto* names = new std::vector<std::string>{
      "valid_small.bin", "header_only.bin", "truncated.bin",
      "bad_magic.bin",   "bad_version.bin", "huge_counts.bin",
      "empty.bin",       "short_header.bin"};
  return *names;
}

const std::vector<std::string>& BenchRecordSeedNames() {
  static const auto* names = new std::vector<std::string>{
      "valid.json",           "unknown_keys.json", "wrong_version.json",
      "missing_version.json", "garbage.json",      "truncated.json",
      "empty.json",           "deep_nesting.json"};
  return *names;
}

TEST(CorpusDatasetTest, SeedsParseAsDocumented) {
  const std::string tmp = ::testing::TempDir() + "corpus_seed.bin";
  // The two well-formed seeds load; every malformed one fails cleanly.
  std::vector<int> labels;
  Result<Dataset> valid =
      LoadBinary(CorpusPath("dataset/valid_small.bin"), &labels);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(valid->NumPoints(), 5u);
  EXPECT_EQ(valid->NumDims(), 3u);
  EXPECT_EQ(labels.size(), 5u);

  Result<ChunkedBinaryDataSource> header_only =
      ChunkedBinaryDataSource::Open(CorpusPath("dataset/header_only.bin"));
  ASSERT_TRUE(header_only.ok()) << header_only.status().ToString();
  EXPECT_EQ(header_only->NumPoints(), 0u);

  for (const char* bad : {"truncated.bin", "bad_magic.bin",
                          "bad_version.bin", "huge_counts.bin", "empty.bin",
                          "short_header.bin"}) {
    SCOPED_TRACE(bad);
    const std::string path = CorpusPath(std::string("dataset/") + bad);
    EXPECT_FALSE(ChunkedBinaryDataSource::Open(path).ok());
    EXPECT_FALSE(MmapFileDataSource::Open(path).ok());
    EXPECT_FALSE(LoadBinary(path).ok());
  }
  std::remove(tmp.c_str());
}

TEST(CorpusDatasetTest, TenThousandMutationsNeverCrashTheReaders) {
  const std::vector<std::string> seeds =
      LoadSeeds("dataset", DatasetSeedNames());
  const std::string tmp = ::testing::TempDir() + "corpus_mutated.bin";
  Rng rng(20260806);
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    const std::string& seed = seeds[rng.UniformInt(seeds.size())];
    DriveDatasetParsers(Mutate(seed, rng), tmp);
  }
  std::remove(tmp.c_str());
}

TEST(CorpusBenchRecordTest, SeedsParseAsDocumented) {
  const Result<BenchRecord> valid =
      BenchRecord::FromJson(ReadFileOrDie(CorpusPath("bench_record/valid.json")));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(valid->bench, "scale_points");
  ASSERT_EQ(valid->entries.size(), 2u);
  EXPECT_TRUE(valid->entries[0].completed);
  EXPECT_FALSE(valid->entries[1].completed);
  EXPECT_EQ(valid->metrics.at("input.points_skipped"), 0);

  // Unknown keys are forward-compatible noise, not errors.
  const Result<BenchRecord> extended = BenchRecord::FromJson(
      ReadFileOrDie(CorpusPath("bench_record/unknown_keys.json")));
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_EQ(extended->metrics.at("k"), 7);

  for (const char* bad :
       {"wrong_version.json", "missing_version.json", "garbage.json",
        "truncated.json", "empty.json"}) {
    SCOPED_TRACE(bad);
    const Result<BenchRecord> r = BenchRecord::FromJson(
        ReadFileOrDie(CorpusPath(std::string("bench_record/") + bad)));
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CorpusBenchRecordTest, TenThousandMutationsNeverCrashFromJson) {
  const std::vector<std::string> seeds =
      LoadSeeds("bench_record", BenchRecordSeedNames());
  Rng rng(20260806);
  int parsed_ok = 0;
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    const std::string& seed = seeds[rng.UniformInt(seeds.size())];
    const Result<BenchRecord> r = BenchRecord::FromJson(Mutate(seed, rng));
    if (r.ok()) {
      ++parsed_ok;
      // Whatever parsed must re-serialize and round-trip.
      const Result<BenchRecord> again = BenchRecord::FromJson(r->ToJson());
      EXPECT_TRUE(again.ok()) << again.status().ToString();
    }
  }
  // Mostly the mutations break the JSON, but not always — some
  // iterations must survive or the loop is not exercising the success
  // path at all.
  EXPECT_GT(parsed_ok, 0);
}

TEST(CorpusRoundTripTest, MutatedDataThatLoadsAlsoRoundTrips) {
  // Deeper property for inputs that survive mutation: Save(Load(x))
  // loads again with identical geometry.
  const std::vector<std::string> seeds =
      LoadSeeds("dataset", DatasetSeedNames());
  const std::string tmp = ::testing::TempDir() + "corpus_rt.bin";
  const std::string tmp2 = ::testing::TempDir() + "corpus_rt2.bin";
  Rng rng(424242);
  for (int i = 0; i < 2000; ++i) {
    const std::string mutated =
        Mutate(seeds[rng.UniformInt(seeds.size())], rng);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    const Result<Dataset> first = LoadBinary(tmp);
    if (!first.ok()) continue;
    if (first->NumPoints() * first->NumDims() > kScanCap) continue;
    ASSERT_TRUE(SaveBinary(*first, tmp2).ok());
    const Result<Dataset> second = LoadBinary(tmp2);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(first->NumPoints(), second->NumPoints());
    EXPECT_EQ(first->NumDims(), second->NumDims());
  }
  std::remove(tmp.c_str());
  std::remove(tmp2.c_str());
}

// ---- Build manifests (dist/manifest.h): the plan every mrcc-build
// process reads back from disk.

const std::vector<std::string>& ManifestSeedNames() {
  static const auto* names = new std::vector<std::string>{
      "valid.json",          "single_shard.json",  "wrong_version.json",
      "bad_fingerprint.json", "gap.json",          "short_cover.json",
      "negative_count.json", "huge_count.json",    "fractional_bound.json",
      "truncated.json",      "empty.json",         "not_object.json"};
  return *names;
}

/// Checks what a loaded manifest promises its readers: a non-empty,
/// ordered, contiguous cover of [0, num_points) that survives a
/// save-and-load unchanged.
void ExpectUsableManifest(const dist::BuildManifest& m) {
  ASSERT_GT(m.num_points, 0u);
  ASSERT_GT(m.num_dims, 0u);
  ASSERT_FALSE(m.shards.empty());
  uint64_t expect = 0;
  for (const dist::ShardPlan& shard : m.shards) {
    ASSERT_EQ(shard.begin, expect);
    ASSERT_GT(shard.end, shard.begin);
    expect = shard.end;
  }
  EXPECT_EQ(expect, m.num_points);
  const Result<dist::BuildManifest> again =
      dist::BuildManifest::FromJson(m.ToJson());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ToJson(), m.ToJson());
}

TEST(CorpusManifestTest, SeedsParseAsDocumented) {
  for (const char* good : {"valid.json", "single_shard.json"}) {
    SCOPED_TRACE(good);
    const Result<dist::BuildManifest> m =
        dist::LoadManifest(CorpusPath(std::string("manifest/") + good));
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    ExpectUsableManifest(*m);
  }
  const Result<dist::BuildManifest> valid =
      dist::LoadManifest(CorpusPath("manifest/valid.json"));
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(valid->shards.size(), 4u);
  EXPECT_EQ(valid->fingerprint, 0x0123456789abcdefull);
  EXPECT_TRUE(valid->shards[2].done);

  for (const std::string& name : ManifestSeedNames()) {
    if (name == "valid.json" || name == "single_shard.json") continue;
    SCOPED_TRACE(name);
    const Result<dist::BuildManifest> m =
        dist::LoadManifest(CorpusPath("manifest/" + name));
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument)
        << m.status().ToString();
  }
}

TEST(CorpusManifestTest, TenThousandMutationsNeverCrashLoadManifest) {
  const std::vector<std::string> seeds =
      LoadSeeds("manifest", ManifestSeedNames());
  const std::string tmp = ::testing::TempDir() + "corpus_manifest.json";
  Rng rng(20261019);
  int loaded = 0;
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    const std::string mutated =
        Mutate(seeds[rng.UniformInt(seeds.size())], rng);
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    const Result<dist::BuildManifest> m = dist::LoadManifest(tmp);
    if (m.ok()) {
      ++loaded;
      ExpectUsableManifest(*m);
    } else {
      EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument)
          << m.status().ToString();
    }
  }
  // Some mutations (a flipped done bit, an edited path) leave a valid
  // manifest; a loop that never loaded one would not test that path.
  EXPECT_GT(loaded, 0);
  std::remove(tmp.c_str());
}

// ---- Counting-tree files (core/tree_io.h): what SaveTree writes and a
// shard artifact embeds ahead of its footer.

TEST(CorpusTreeTest, SeedsParseAsDocumented) {
  // The tree of the one point 0.1 at d = 1, H = 4, pool {root, middle,
  // leaf}: it loads, and it is what Build writes.
  const double point[] = {0.1};
  Dataset one(0, 1);
  one.AppendPoint(point);
  Result<CountingTree> built = CountingTree::Build(one, 4);
  ASSERT_TRUE(built.ok());
  const std::string valid = CorpusPath("tree/valid_one_point.tree");
  EXPECT_EQ(ReadFileOrDie(valid), SerializeTree(*built));
  Result<CountingTree> loaded = LoadTree(valid);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeTree(*loaded), SerializeTree(*built));

  // The same cells with the pool out of creation order, {root, leaf,
  // middle}: every other invariant holds, and both readers reject it.
  const std::string reordered = CorpusPath("tree/out_of_creation_order.tree");
  for (const Result<CountingTree>& r :
       {ParseTree(ReadFileOrDie(reordered), reordered),
        LoadTree(reordered)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_EQ(r.status().message(),
              "corrupt tree in " + reordered +
                  ": tree invariant violated: node 2: cell 0: child node 1 "
                  "is not after its parent's node");
  }
}

TEST(CorpusTreeTest, TenThousandMutationsNeverCrashParseTree) {
  const std::vector<std::string> seeds = LoadSeeds(
      "tree", {"valid_one_point.tree", "out_of_creation_order.tree"});
  Rng rng(20261020);
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    const std::string& seed = seeds[rng.UniformInt(seeds.size())];
    const Result<CountingTree> r = ParseTree(Mutate(seed, rng), "mutated");
    if (r.ok()) {
      EXPECT_TRUE(r->ValidateInvariants().ok());
      continue;
    }
    ++rejected;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
  }
  EXPECT_GT(rejected, 0);
}

// ---- Shard artifacts (dist/shard_io.h): the only state one mrcc-build
// process hands another.

/// A small clustered tree serialized as a shard artifact.
std::string ShardArtifactSeed() {
  const Dataset data = testing::SmallClustered(400, 4, 2, 77).data;
  Result<CountingTree> tree = CountingTree::Build(data, 5);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  const uint64_t n = data.NumPoints();
  return dist::SerializeShardArtifact(*tree, dist::ShardMeta{0, n, n});
}

/// Outcome tally of a mutation loop over the artifact loader. A rejection
/// must be a clean IOError; which layer rejected is read off the message
/// (the footer checks name the "shard artifact", ParseTree and the
/// validator do not).
struct ShardFuzzTally {
  int footer = 0;          // Footer shape, version, length, partition.
  int checksum = 0;        // "checksum mismatch ..."
  int tree_parse = 0;      // ParseTree's field-level errors.
  int tree_invariant = 0;  // ValidateInvariants, via "corrupt tree in".

  void Add(const Result<dist::ShardArtifact>& r) {
    if (r.ok()) {
      EXPECT_TRUE(r->tree.ValidateInvariants().ok());
      return;
    }
    ASSERT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
    const std::string m = r.status().message();
    if (m.rfind("checksum mismatch", 0) == 0) {
      ++checksum;
    } else if (m.find("shard artifact") != std::string::npos) {
      ++footer;
    } else if (m.rfind("corrupt tree in", 0) == 0) {
      ++tree_invariant;
    } else {
      ++tree_parse;
    }
  }
};

TEST(CorpusShardArtifactTest, SeedLoadsAndRestampIsIdentity) {
  const std::string seed = ShardArtifactSeed();
  const Result<dist::ShardArtifact> loaded =
      dist::ParseShardArtifact(seed, "seed");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.point_count, 400u);
  // Restamp writes exactly the footer the writer wrote.
  std::string restamped = seed;
  testing::RestampShardArtifact(&restamped);
  EXPECT_EQ(restamped, seed);
}

TEST(CorpusShardArtifactTest, TenThousandMutationsNeverCrashTheLoader) {
  const std::string seed = ShardArtifactSeed();
  Rng rng(20261017);
  ShardFuzzTally tally;
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    tally.Add(dist::ParseShardArtifact(Mutate(seed, rng), "mutated"));
  }
  // Without a re-stamped trailer the footer checks and the checksum stop
  // every damaged artifact before its tree bytes are parsed.
  EXPECT_GT(tally.checksum, 0);
  EXPECT_EQ(tally.tree_parse + tally.tree_invariant, 0);
}

TEST(CorpusShardArtifactTest, RestampedMutationsReachTreeParserAndValidator) {
  const std::string seed = ShardArtifactSeed();
  Rng rng(20261018);
  ShardFuzzTally tally;
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("mutation iteration " + std::to_string(i));
    std::string bytes = Mutate(seed, rng);
    testing::RestampShardArtifact(&bytes);
    tally.Add(dist::ParseShardArtifact(bytes, "restamped"));
  }
  // With the trailer re-stamped the damage gets past the checksum, so
  // both tree layers must have rejected some of it; a loop that never
  // reached them would prove nothing about their buffer handling.
  EXPECT_EQ(tally.checksum, 0);
  EXPECT_GT(tally.tree_parse, 0);
  EXPECT_GT(tally.tree_invariant, 0);
}

}  // namespace
}  // namespace mrcc

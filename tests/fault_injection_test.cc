// The fault sweep: every registered failpoint, injected into a full
// pipeline run (mmap file source -> MrCC::Run -> result + report
// writes), must produce a clean non-OK Status of the expected category,
// a successful-but-degraded result, or a clean success via a fallback. Never an abort, never a
// crash, never a sanitizer report — this is the executable form of the
// failure model in DESIGN.md §11. The coverage assertion (every site
// records hits) proves the scenario actually reaches each seam, so a
// seam that silently loses its check fails the sweep.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/result_io.h"
#include "dist/sharded_build.h"
#include "eval/report.h"
#include "test_util.h"

namespace mrcc {
namespace {

/// What the sweep expects a site to do to the pipeline when armed on
/// every hit.
enum class Outcome {
  kError,     // Run fails with the site's status code.
  kDegraded,  // Run succeeds with stats.degraded set.
  kAbsorbed,  // Run succeeds clean: a fallback absorbed the fault.
};

struct Expectation {
  Outcome outcome;
  StatusCode code = StatusCode::kOk;  // Only for kError.
};

const std::map<std::string, Expectation>& Expectations() {
  static const auto* map = new std::map<std::string, Expectation>{
      {"source.open", {Outcome::kError, StatusCode::kIOError}},
      {"source.scan", {Outcome::kError, StatusCode::kIOError}},
      // Armed on every hit the bounded retry loop exhausts its attempts.
      {"source.read.transient", {Outcome::kError, StatusCode::kIOError}},
      {"source.read.truncate", {Outcome::kError, StatusCode::kIOError}},
      // A corrupt row is caught by input sanitization, not by I/O.
      {"source.read.corrupt",
       {Outcome::kError, StatusCode::kInvalidArgument}},
      // A refused mapping falls back to the pread path transparently.
      {"source.mmap", {Outcome::kAbsorbed}},
      {"source.chunk.read", {Outcome::kError, StatusCode::kIOError}},
      {"tree.build.alloc",
       {Outcome::kError, StatusCode::kResourceExhausted}},
      {"tree.merge.alloc",
       {Outcome::kError, StatusCode::kResourceExhausted}},
      {"beta.search.alloc",
       {Outcome::kError, StatusCode::kResourceExhausted}},
      {"pool.spawn", {Outcome::kDegraded}},
      {"result.write", {Outcome::kError, StatusCode::kIOError}},
      {"report.write", {Outcome::kError, StatusCode::kIOError}},
      {"budget.memory", {Outcome::kDegraded}},
      {"budget.deadline", {Outcome::kDegraded}},
  };
  return *map;
}

/// The distributed seams (dist/) are reached by the sharded-build
/// scenario instead of the single-process one.
const std::map<std::string, Expectation>& DistExpectations() {
  static const auto* map = new std::map<std::string, Expectation>{
      // A failed artifact publication fails the worker's shard.
      {"shard.write", {Outcome::kError, StatusCode::kIOError}},
      // A failed manifest write fails planning.
      {"manifest.write", {Outcome::kError, StatusCode::kIOError}},
      // Checksum rot and lost loads are absorbed: the merger retries,
      // then rebuilds the shard in-process — slower, never wrong.
      {"shard.checksum", {Outcome::kAbsorbed}},
      {"merge.shard_load", {Outcome::kAbsorbed}},
  };
  return *map;
}

/// One full out-of-core pipeline pass: open, cluster, persist, report.
/// Exactly the surface a production driver runs, so an armed site fires
/// wherever its real failure would.
Status RunScenario(const Dataset& data, const std::string& bin_path,
                   const std::string& out_prefix, MrCCStats* stats) {
  // The mmap source exercises the most seams: open + header read (pread),
  // the mapping itself, and the per-chunk delivery path.
  Result<MmapFileDataSource> source = MmapFileDataSource::Open(bin_path);
  if (!source.ok()) return source.status();
  MrCCParams params;
  params.num_threads = 2;  // Two shards: exercises merge and pool seams.
  const Result<MrCCResult> result = MrCC(params).Run(*source);
  if (!result.ok()) return result.status();
  *stats = result->stats;
  MRCC_RETURN_IF_ERROR(
      WriteJsonFile(MrCCResultToJson(*result), out_prefix + "result.json"));
  MRCC_RETURN_IF_ERROR(WriteRunReport(data, *result, "fault sweep",
                                      out_prefix + "report.html"));
  return Status::OK();
}

/// The multi-process surface: plan, build every shard, merge — what the
/// mrcc-build driver runs. A fresh work directory every call so resume
/// state from the previous arm cannot mask a seam.
Status RunDistScenario(const std::string& bin_path,
                       const std::string& work_dir, MrCCStats* stats) {
  (void)std::system(
      ("rm -rf " + work_dir + " && mkdir -p " + work_dir).c_str());
  dist::ShardedBuildOptions options;
  options.dataset_path = bin_path;
  options.work_dir = work_dir;
  options.num_shards = 3;
  options.params.num_threads = 2;
  options.retry.max_attempts = 2;  // Keep exhausted-retry arms quick.
  options.retry.initial_backoff_us = 10;
  const Result<MrCCResult> result = dist::RunShardedBuild(options);
  if (!result.ok()) return result.status();
  *stats = result->stats;
  return Status::OK();
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::DisarmAll();  // A crashed prior test must not leak armed sites.
    data_ = testing::SmallClustered(6000, 4, 2, 77).data;
    bin_path_ = testing::UniqueTempPath("mrcc_fault_sweep") + ".bin";
    out_prefix_ = testing::UniqueTempPath("mrcc_fault_sweep") + "_";
    ASSERT_TRUE(SaveBinary(data_, bin_path_).ok());
  }
  void TearDown() override {
    fp::DisarmAll();
    std::remove(bin_path_.c_str());
    std::remove((out_prefix_ + "result.json").c_str());
    std::remove((out_prefix_ + "report.html").c_str());
  }

  Dataset data_;
  std::string bin_path_;
  std::string out_prefix_;
};

TEST_F(FaultInjectionTest, BaselineScenarioPassesDisarmed) {
  MrCCStats stats;
  const Status status = RunScenario(data_, bin_path_, out_prefix_, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.tree_build_threads, 2);
}

TEST_F(FaultInjectionTest, EveryRegisteredSiteFailsCleanlyOrDegrades) {
  const std::vector<std::string> sites = fp::AllSites();
  ASSERT_EQ(sites.size(), Expectations().size() + DistExpectations().size())
      << "a failpoint site is missing a sweep expectation; add it to "
         "Expectations() (or DistExpectations() for dist/ seams) and the "
         "failure model in DESIGN.md §11";
  const std::string work_dir = testing::UniqueTempPath("mrcc_fault_dist");
  for (const std::string& site : sites) {
    SCOPED_TRACE("failpoint: " + site);
    const bool dist_site =
        DistExpectations().find(site) != DistExpectations().end();
    const auto& expectations =
        dist_site ? DistExpectations() : Expectations();
    const auto it = expectations.find(site);
    ASSERT_NE(it, expectations.end());
    const auto run = [&](MrCCStats* stats) {
      return dist_site ? RunDistScenario(bin_path_, work_dir, stats)
                       : RunScenario(data_, bin_path_, out_prefix_, stats);
    };

    fp::ScopedArm arm(site);  // Every-hit trigger.
    MrCCStats stats;
    const Status status = run(&stats);
    // Coverage: the scenario must actually reach the seam.
    EXPECT_GT(fp::HitCount(site.c_str()), 0u) << "seam never exercised";
    if (it->second.outcome == Outcome::kError) {
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), it->second.code) << status.ToString();
      EXPECT_FALSE(status.message().empty());
    } else if (it->second.outcome == Outcome::kDegraded) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_TRUE(stats.degraded);
      EXPECT_FALSE(stats.degradation_reasons.empty());
    } else {
      // Absorbed: the fault is invisible to the pipeline's result.
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_FALSE(stats.degraded);
    }
    fp::DisarmAll();

    // The pipeline must come back clean once the fault clears — no sticky
    // state, no half-written structures poisoning the next run.
    MrCCStats recovered;
    const Status after = run(&recovered);
    EXPECT_TRUE(after.ok()) << site << " left damage: " << after.ToString();
    EXPECT_FALSE(recovered.degraded) << site;
  }
  (void)std::system(("rm -rf " + work_dir).c_str());
}

TEST_F(FaultInjectionTest, SingleTransientErrorIsRetriedInvisibly) {
  // One injected EAGAIN: the read layer retries with backoff and the run
  // completes identically to the undisturbed one.
  MrCCStats baseline_stats;
  ASSERT_TRUE(
      RunScenario(data_, bin_path_, out_prefix_, &baseline_stats).ok());

  fp::ScopedArm arm("source.read.transient=1");
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(source.ok());
  const Result<MrCCResult> result = MrCC().Run(*source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->stats.degraded);
  EXPECT_GT(fp::HitCount("source.read.transient"), 0u);
}

TEST_F(FaultInjectionTest, ProbabilisticReadFaultsNeverCrashThePipeline) {
  // A flaky-disk soak: 20% of reads fail transiently under a fixed seed.
  // Runs either complete (enough retries absorbed the faults) or fail
  // with a clean IOError; determinism of the trigger makes this exact.
  // Eight-point chunks make each scan of the 6000 points draw 750 block
  // reads.
  fp::ScopedArm arm("source.read.transient=p0.2@1234");
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(bin_path_);
  if (!source.ok()) {
    EXPECT_EQ(source.status().code(), StatusCode::kIOError);
    return;
  }
  MrCCParams params;
  params.chunk_points = 8;
  const Result<MrCCResult> result = MrCC(params).Run(*source);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
    EXPECT_NE(result.status().message().find("retries"), std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(FaultInjectionTest, LenientPolicySurvivesCorruptRows) {
  // Corrupt rows + skip policy: the run completes on the clean subset
  // and reports exactly how much it dropped.
  fp::ScopedArm arm("source.read.corrupt=p0.05@7");
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(bin_path_);
  ASSERT_TRUE(source.ok());
  MrCCParams params;
  params.bad_point_policy = BadPointPolicy::kSkip;
  const Result<MrCCResult> result = MrCC(params).Run(*source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.points_skipped, 0u);
  EXPECT_LT(result->stats.points_skipped, data_.NumPoints());
}

}  // namespace
}  // namespace mrcc

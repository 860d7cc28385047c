#include "common/budget.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/counting_tree.h"
#include "core/mrcc.h"
#include "core/tree_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::DisarmAll(); }
};

TEST_F(BudgetTest, UnlimitedByDefault) {
  const ResourceBudget budget;
  EXPECT_TRUE(budget.Unlimited());
  EXPECT_TRUE(budget.Validate().ok());
  const BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.MemoryPressure(1u << 30));
  EXPECT_FALSE(tracker.DeadlineExceeded());
}

TEST_F(BudgetTest, NegativeDeadlineIsRejectedByParamsValidate) {
  MrCCParams params;
  params.budget.max_wall_seconds = -1.0;
  EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(BudgetTest, TrackerRespectsCaps) {
  ResourceBudget budget;
  budget.max_memory_bytes = 1000;
  const BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.MemoryPressure(1000));
  EXPECT_TRUE(tracker.MemoryPressure(1001));
  EXPECT_FALSE(tracker.DeadlineExceeded());  // No wall cap set.
}

TEST_F(BudgetTest, FailpointsForceBothPressurePaths) {
  const BudgetTracker tracker(ResourceBudget{});
  {
    fp::ScopedArm arm("budget.memory");
    EXPECT_TRUE(tracker.MemoryPressure(0));
  }
  {
    fp::ScopedArm arm("budget.deadline");
    EXPECT_TRUE(tracker.DeadlineExceeded());
  }
}

/// Points [begin, end) of `data` as their own dataset.
Dataset Slice(const Dataset& data, size_t begin, size_t end) {
  Dataset out(0, data.NumDims());
  for (size_t i = begin; i < end; ++i) out.AppendPoint(data.Point(i));
  return out;
}

// Every drop is exact: the tree is byte-identical to one built with the
// smaller H from the start, whether it was built, folded from three
// sources or parsed — so the whole downstream search is too.
TEST_F(BudgetTest, DropDeepestLevelMatchesSmallerHBuild) {
  constexpr int kDeepest = 6;
  for (const size_t dims : {size_t{1}, size_t{2}, size_t{14}, size_t{30}}) {
    SCOPED_TRACE("d = " + std::to_string(dims));
    const Dataset d = testing::SmallClustered(1500, dims, 2, 17).data;
    const size_t n = d.NumPoints();
    std::vector<std::string> fresh(kDeepest);  // fresh[H]: built at H.
    for (int h = 3; h < kDeepest; ++h) {
      Result<CountingTree> tree = CountingTree::Build(d, h);
      ASSERT_TRUE(tree.ok());
      fresh[static_cast<size_t>(h)] = SerializeTree(*tree);
    }

    std::vector<CountingTree> trees;
    Result<CountingTree> built = CountingTree::Build(d, kDeepest);
    ASSERT_TRUE(built.ok());
    std::vector<CountingTree> sources;
    for (size_t part = 0; part < 3; ++part) {
      Result<CountingTree> source = CountingTree::Build(
          Slice(d, part * n / 3, (part + 1) * n / 3), kDeepest);
      ASSERT_TRUE(source.ok());
      sources.push_back(std::move(*source));
    }
    const CountingTree* parts[] = {&sources[0], &sources[1], &sources[2]};
    Result<CountingTree> folded = CountingTree::Fold(parts, nullptr, nullptr);
    ASSERT_TRUE(folded.ok());
    Result<CountingTree> parsed = ParseTree(SerializeTree(*built), "built");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    trees.push_back(std::move(built).value());
    trees.push_back(std::move(folded).value());
    trees.push_back(std::move(parsed).value());

    for (size_t t = 0; t < trees.size(); ++t) {
      SCOPED_TRACE("tree " + std::to_string(t) + " (built, folded, parsed)");
      CountingTree& tree = trees[t];
      for (int h = kDeepest - 1; h >= 3; --h) {
        ASSERT_TRUE(tree.DropDeepestLevel().ok());
        ASSERT_TRUE(tree.ValidateInvariants().ok());
        EXPECT_EQ(tree.num_resolutions(), h);
        EXPECT_EQ(tree.total_points(), n);
        EXPECT_TRUE(SerializeTree(tree) == fresh[static_cast<size_t>(h)])
            << "H = " << h;
      }
    }
  }
}

// An unsealed tree's cells are not all in its arenas (after Flush) and
// its pending run keys points at the current H (after Insert): the drop
// refuses both before touching the tree.
TEST_F(BudgetTest, DropRefusesAnUnsealedTree) {
  const Dataset d = testing::UniformDataset(600, 3, 5);
  Result<CountingTree> whole = CountingTree::Build(d, 5);
  ASSERT_TRUE(whole.ok());
  const std::string expected = SerializeTree(*whole);

  Result<CountingTree> flushed = CountingTree::Build(d, 5);
  ASSERT_TRUE(flushed.ok());
  flushed->Flush();
  EXPECT_EQ(flushed->DropDeepestLevel().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flushed->num_resolutions(), 5);
  flushed->Seal();
  EXPECT_TRUE(SerializeTree(*flushed) == expected);

  Result<CountingTree> inserted = CountingTree::Build(Slice(d, 0, 300), 5);
  ASSERT_TRUE(inserted.ok());
  for (size_t i = 300; i < d.NumPoints(); ++i) {
    ASSERT_TRUE(inserted->Insert(d.Point(i)).ok());
  }
  EXPECT_EQ(inserted->DropDeepestLevel().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(inserted->num_resolutions(), 5);
  inserted->Seal();
  EXPECT_TRUE(SerializeTree(*inserted) == expected);
}

TEST_F(BudgetTest, DropRefusesBelowMinimumResolutions) {
  const Dataset d = testing::UniformDataset(500, 3, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 3);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->DropDeepestLevel().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->num_resolutions(), 3);
}

TEST_F(BudgetTest, MemoryPressureDegradesRunToSmallerH) {
  const Dataset d = testing::SmallClustered(4000, 6, 2, 17).data;

  // One forced pressure reading: the run must shed exactly one level.
  MrCCParams degraded_params;
  degraded_params.num_resolutions = 5;
  Result<MrCCResult> degraded(Status::Internal("not run"));
  {
    fp::ScopedArm arm("budget.memory=1");
    degraded = MrCC(degraded_params).Run(d);
  }
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->stats.degraded);
  EXPECT_EQ(degraded->stats.effective_resolutions, 4);
  ASSERT_FALSE(degraded->stats.degradation_reasons.empty());
  EXPECT_NE(degraded->stats.degradation_reasons[0].find("memory pressure"),
            std::string::npos);

  // The degraded run answers exactly like a run configured with the
  // smaller H from the start.
  MrCCParams small_params;
  small_params.num_resolutions = 4;
  const Result<MrCCResult> small = MrCC(small_params).Run(d);
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small->stats.degraded);
  EXPECT_EQ(degraded->clustering.labels, small->clustering.labels);
  EXPECT_EQ(degraded->beta_clusters.size(), small->beta_clusters.size());
  EXPECT_EQ(degraded->stats.beta_search.accepted, small->stats.beta_search.accepted);
}

TEST_F(BudgetTest, ImpossibleMemoryCapStopsAtMinimumHAndContinues) {
  const Dataset d = testing::SmallClustered(3000, 5, 2, 23).data;
  MrCCParams params;
  params.num_resolutions = 5;
  params.budget.max_memory_bytes = 1;  // Unreachable even at H = 3.
  const Result<MrCCResult> result = MrCC(params).Run(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.degraded);
  EXPECT_EQ(result->stats.effective_resolutions, 3);
  // Two levels shed plus the "still over budget" note.
  EXPECT_EQ(result->stats.degradation_reasons.size(), 3u);
  // The run still answers: labels cover every point.
  EXPECT_EQ(result->clustering.labels.size(), d.NumPoints());
}

TEST_F(BudgetTest, ExpiredDeadlineReturnsPartialResultNotError) {
  const Dataset d = testing::SmallClustered(3000, 5, 2, 23).data;
  MrCCParams params;
  params.budget.max_wall_seconds = 1e-9;  // Expired by the first check.
  const Result<MrCCResult> result = MrCC(params).Run(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.degraded);
  ASSERT_EQ(result->clustering.labels.size(), d.NumPoints());
  for (int label : result->clustering.labels) {
    EXPECT_EQ(label, kNoiseLabel);
  }
  ASSERT_FALSE(result->stats.degradation_reasons.empty());
  EXPECT_NE(result->stats.degradation_reasons[0].find("deadline"),
            std::string::npos);
}

TEST_F(BudgetTest, DeadlineDuringBetaSearchYieldsPrefixOfClusters) {
  const Dataset d = testing::SmallClustered(4000, 6, 3, 29).data;
  // Fire the deadline on its second reading: the post-tree gate passes,
  // the first β-search level boundary trips. The search returns what it
  // has; labeling is then skipped by the next gate.
  Result<MrCCResult> result(Status::Internal("not run"));
  {
    fp::ScopedArm arm("budget.deadline=2");
    result = MrCC().Run(d);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.degraded);
  // The full search finds more than the cut-off one can.
  const Result<MrCCResult> full = MrCC().Run(d);
  ASSERT_TRUE(full.ok());
  EXPECT_LE(result->beta_clusters.size(), full->beta_clusters.size());
}

}  // namespace
}  // namespace mrcc

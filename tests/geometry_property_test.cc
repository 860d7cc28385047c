// Property tests over the geometric primitives the correlation-cluster
// construction rests on: box overlap, containment and the merge relation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "test_util.h"

namespace mrcc {
namespace {

BetaCluster RandomBox(Rng& rng, size_t d) {
  BetaCluster b;
  b.lower.resize(d);
  b.upper.resize(d);
  b.relevant.resize(d);
  for (size_t j = 0; j < d; ++j) {
    b.relevant[j] = rng.Bernoulli(0.6);
    if (b.relevant[j]) {
      const double lo = rng.Uniform(0.0, 0.8);
      b.lower[j] = lo;
      b.upper[j] = lo + rng.Uniform(0.05, 0.2);
    } else {
      b.lower[j] = 0.0;
      b.upper[j] = 1.0;
    }
  }
  return b;
}

TEST(BoxPropertyTest, SharesSpaceIsSymmetricAndReflexive) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const BetaCluster a = RandomBox(rng, 6);
    const BetaCluster b = RandomBox(rng, 6);
    EXPECT_TRUE(a.SharesSpaceWith(a));
    EXPECT_EQ(a.SharesSpaceWith(b), b.SharesSpaceWith(a));
  }
}

TEST(BoxPropertyTest, CommonContainedPointImpliesSharedSpace) {
  // If any point is strictly inside both boxes, they must share space.
  Rng rng(777);
  int hits = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const BetaCluster a = RandomBox(rng, 5);
    const BetaCluster b = RandomBox(rng, 5);
    // Sample inside a's box so joint containment actually occurs.
    std::vector<double> p(5);
    for (size_t j = 0; j < 5; ++j) p[j] = rng.Uniform(a.lower[j], a.upper[j]);
    ASSERT_TRUE(a.Contains(p));
    if (b.Contains(p)) {
      ++hits;
      EXPECT_TRUE(a.SharesSpaceWith(b));
    }
  }
  EXPECT_GT(hits, 5);  // The property must actually have been exercised.
}

TEST(BoxPropertyTest, DisjointRelevantIntervalsNeverShareSpace) {
  BetaCluster a, b;
  a.lower = {0.1, 0.0};
  a.upper = {0.2, 1.0};
  a.relevant = {true, false};
  b.lower = {0.5, 0.0};
  b.upper = {0.7, 1.0};
  b.relevant = {true, false};
  EXPECT_FALSE(a.SharesSpaceWith(b));
}

TEST(BoxPropertyTest, MergePartitionIsTransitiveClosure) {
  // MergeBetaClusters must put two betas in the same cluster iff they are
  // connected in the shares-space graph.
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<BetaCluster> betas;
    for (int b = 0; b < 8; ++b) betas.push_back(RandomBox(rng, 4));
    std::vector<int> b2c;
    MergeBetaClusters(betas, 4, &b2c);

    // Naive transitive closure.
    const size_t n = betas.size();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      reach[i][i] = true;
      for (size_t j = 0; j < n; ++j) {
        if (i != j && betas[i].SharesSpaceWith(betas[j])) {
          reach[i][j] = true;
        }
      }
    }
    for (size_t k = 0; k < n; ++k) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(b2c[i] == b2c[j], reach[i][j])
            << "trial " << trial << " pair " << i << "," << j;
      }
    }
  }
}

TEST(BoxPropertyTest, ContainmentMatchesBoundsExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const BetaCluster box = RandomBox(rng, 3);
    std::vector<double> p(3);
    for (double& v : p) v = rng.UniformDouble();
    bool expected = true;
    for (size_t j = 0; j < 3; ++j) {
      if (p[j] < box.lower[j] || p[j] > box.upper[j]) expected = false;
    }
    EXPECT_EQ(box.Contains(p), expected);
  }
}

TEST(StatsPropertyTest, CriticalValueMonotoneInN) {
  // More data -> larger absolute critical count (at fixed alpha, p).
  int64_t prev = 0;
  for (int64_t n : {10, 100, 1000, 10000, 100000}) {
    const int64_t theta = BinomialCriticalValue(n, 1.0 / 6.0, 1e-10);
    EXPECT_GE(theta, prev);
    prev = theta;
  }
}

TEST(StatsPropertyTest, CriticalValueAboveMeanBelowN) {
  Rng rng(5150);
  for (int trial = 0; trial < 100; ++trial) {
    const int64_t n = 50 + static_cast<int64_t>(rng.UniformInt(10000));
    const double p = rng.Uniform(0.05, 0.5);
    const double alpha = std::pow(10.0, -rng.Uniform(2.0, 12.0));
    const int64_t theta = BinomialCriticalValue(n, p, alpha);
    EXPECT_GT(static_cast<double>(theta), static_cast<double>(n) * p)
        << "critical value must exceed the mean";
    EXPECT_LE(theta, n + 1);
  }
}

}  // namespace
}  // namespace mrcc

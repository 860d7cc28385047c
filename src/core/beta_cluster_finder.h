// β-cluster search (paper §III-B, Algorithm 2).
//
// Repeatedly sweeps Counting-tree levels 2..H-1, coarse to fine. At each
// level the face-only Laplacian response selects the densest still-unused
// cell that does not overlap a previously found β-cluster; a one-sided
// binomial test on the parent-level neighborhood decides whether that
// region stands out statistically. On success the per-axis relevances are
// cut by MDL into relevant/irrelevant, the bounds are grown by populated
// face neighbors, and the sweep restarts from level 2. The search ends
// after a full sweep with no statistically significant candidate.
//
// The tree holds counts only. Eligibility is the search's own state: one
// `blocked` byte per cell of each level, set for a cell once it has been
// tested (the paper's usedCell) or once it overlaps a found β-cluster.

#pragma once

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "core/counting_tree.h"

namespace mrcc {

/// A candidate correlation cluster: a hyper-box with per-axis relevance.
/// Bounds on irrelevant axes span the whole cube [0, 1].
struct BetaCluster {
  /// Lower/upper bound per axis (the paper's L[k][j], U[k][j]).
  std::vector<double> lower;
  std::vector<double> upper;

  /// relevant[j] == true when axis e_j is relevant (the paper's V[k][j]).
  std::vector<bool> relevant;

  /// Diagnostic: per-axis relevance r[j] = 100 * cP_j / nP_j.
  std::vector<double> relevance;

  /// Tree level where the center cell was found.
  int level = 0;

  /// Point count of the center cell.
  uint32_t center_count = 0;

  /// True when this β-cluster's box overlaps `other`'s box on every axis
  /// (the paper's shares-space predicate over L and U).
  bool SharesSpaceWith(const BetaCluster& other) const;

  /// True when the point lies inside the box (inclusive bounds).
  bool Contains(std::span<const double> point) const;
};

struct BetaFinderOptions {
  /// Significance level of the one-sided binomial test (paper's alpha).
  double alpha = 1e-10;

  /// Ablation knob: convolve with the full order-3 Laplacian mask (all
  /// 3^d - 1 neighbors at weight -1) instead of the production face-only
  /// mask. The paper argues the full mask "improves a little" but costs
  /// O(3^d) per cell. Above kMaxFullMaskDims, RunBetaSearch silently
  /// falls back to the face-only mask (MrCC::Run rejects the combination
  /// instead).
  bool full_mask = false;

  /// Worker threads for the convolution sweep and the per-level argmax
  /// (1 = serial, 0 = hardware concurrency). Per-cell convolutions are
  /// independent and the argmax reduction breaks ties by the lowest cell
  /// index, so every thread count yields bit-identical β-clusters.
  int num_threads = 1;
};

/// Work counters of one β-cluster search. Deterministic like the search
/// itself — the same tree and options produce the same counts at any
/// thread count — so they double as cheap regression probes ("did this
/// change run more binomial tests?") in MrCCStats and the metrics
/// registry.
struct BetaSearchStats {
  /// Laplacian responses computed (== materialized cells of levels
  /// 2..H-1, each convolved exactly once).
  uint64_t cells_convolved = 0;

  /// Argmax candidates that reached the statistical test.
  uint64_t candidates_tested = 0;

  /// Per-axis one-sided binomial tests run (d per candidate).
  uint64_t binomial_tests = 0;

  /// Candidates accepted as β-clusters (== number of β-clusters found).
  uint64_t accepted = 0;

  /// True when the search stopped early because the caller's wall-clock
  /// budget ran out; the returned β-clusters are a valid prefix of the
  /// full search (the sweep is deterministic, so everything found before
  /// the cut stands).
  bool deadline_hit = false;
};

/// Everything one β-cluster search produces: the clusters plus the work
/// counters of the run. Returned by value — stage APIs take no mutable
/// stats out-params; MrCCStats aggregates these sub-structs.
struct BetaSearchResult {
  std::vector<BetaCluster> betas;
  BetaSearchStats stats;
};

/// Runs Algorithm 2 over `tree`. The search keeps the paper's usedCell
/// flags itself and only reads the tree, so searching one tree again
/// gives the same result. Deterministic.
///
/// When `budget` is non-null its deadline is checked at every level
/// boundary; on expiry the search returns the β-clusters found so far
/// with stats.deadline_hit set — a partial result, not an error. A
/// non-OK status only signals a real failure: the `beta.search.alloc`
/// failpoint (a failed level-cache allocation), or Internal for a tree
/// whose cells lack a parent cell. An unsealed `tree` (Insert or
/// Flush since its last Seal) is InvalidArgument.
[[nodiscard]] Result<BetaSearchResult> RunBetaSearch(
    const CountingTree& tree, const BetaFinderOptions& options,
    BudgetTracker* budget = nullptr);

}  // namespace mrcc


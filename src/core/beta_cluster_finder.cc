#include "core/beta_cluster_finder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/mdl.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/laplacian_mask.h"
#include "core/level_keys.h"

namespace mrcc {

bool BetaCluster::SharesSpaceWith(const BetaCluster& other) const {
  // Positive-volume intersection on every axis. The bounds are grid-cell
  // aligned, so boxes that merely touch at a face share only a measure-zero
  // hyperplane — treating that as "sharing space" would chain-merge
  // unrelated clusters whose boxes happen to abut.
  for (size_t j = 0; j < lower.size(); ++j) {
    if (upper[j] <= other.lower[j] || lower[j] >= other.upper[j]) return false;
  }
  return true;
}

bool BetaCluster::Contains(std::span<const double> point) const {
  // Negated compares: a NaN coordinate fails both and so lies outside.
  for (size_t j = 0; j < lower.size(); ++j) {
    if (!(point[j] >= lower[j] && point[j] <= upper[j])) return false;
  }
  return true;
}

namespace {

// The β-cluster search engine. Convolution responses are static per cell
// (point counts never change), so each level is convolved exactly once and
// cached; sweeps then only rescan eligibility, which the search keeps to
// itself: the tree is read-only.
// Cells are addressed by their packed arena index throughout — the level
// arena *is* the enumeration, so the caches are plain parallel arrays and
// every lookup (face neighbor, parent, growth probe) is a search of the
// level's sorted keys instead of an O(level * d) root descent.
class BetaClusterFinder {
 public:
  BetaClusterFinder(const CountingTree& tree,
                    const BetaFinderOptions& options)
      : tree_(tree),
        d_(tree.num_dims()),
        options_(options),
        pool_(ResolveThreadCount(options.num_threads)),
        levels_(static_cast<size_t>(std::max(0, tree.num_resolutions()))) {}

  const BetaSearchStats& stats() const { return stats_; }

  Result<std::vector<BetaCluster>> Run(BudgetTracker* budget) {
    std::vector<BetaCluster> betas;
    bool found_new = true;
    while (found_new) {
      found_new = false;
      // Inner sweep: levels 2 .. H-1, one candidate (the Laplacian argmax)
      // per level; restart from level 2 as soon as a β-cluster is found.
      for (int h = 2; h < tree_.num_resolutions() && !found_new; ++h) {
        // Level boundaries are the natural preemption points: between
        // them the search only appends complete β-clusters, so cutting
        // here returns a deterministic prefix of the full result.
        if (budget != nullptr && budget->DeadlineExceeded()) {
          stats_.deadline_hit = true;
          return betas;
        }
        MRCC_RETURN_IF_ERROR(EnsureLevel(h));
        const int64_t best = SelectBestCell(h, betas);
        if (best < 0) continue;  // No eligible cell at this level.
        const auto cell = static_cast<uint32_t>(best);
        // The paper's usedCell: a tested cell is never a candidate again.
        levels_[static_cast<size_t>(h)].blocked[cell] = 1;
        BetaCluster beta;
        Result<bool> accepted = TestAndDescribe(h, cell, &beta);
        if (!accepted.ok()) return accepted.status();
        if (*accepted) {
          betas.push_back(std::move(beta));
          found_new = true;
        }
      }
    }
    return betas;
  }

 private:
  struct LevelData {
    bool ready = false;  // Convolution responses cached?
    std::vector<int64_t> conv;  // One response per cell (arena order).
    // 1: tested already (the paper's usedCell) or overlaps a found β.
    // Both marks hold for the rest of the search.
    std::vector<uint8_t> blocked;
    std::unique_ptr<LevelKeys> keys;  // Sorted cell keys, built lazily.
  };

  // Sorted keys of level h; built on first use (parent-level lookups need
  // them one level before the convolution sweep gets there).
  const LevelKeys& EnsureKeys(int h) {
    LevelData& level = levels_[static_cast<size_t>(h)];
    if (level.keys == nullptr) {
      level.keys = std::make_unique<LevelKeys>(tree_.Level(h));
    }
    return *level.keys;
  }

  // Convolves every cell of level h once and caches the responses (one
  // merge-join per mask offset over the level's sorted keys).
  Status EnsureLevel(int h) {
    MRCC_DCHECK_GE(h, 2);
    MRCC_DCHECK_LT(static_cast<size_t>(h), levels_.size());
    LevelData& level = levels_[static_cast<size_t>(h)];
    if (level.ready) return Status::OK();
    // The level cache is the search's only sizable allocation.
    MRCC_RETURN_IF_ERROR(fp::Maybe("beta.search.alloc"));
    MRCC_TRACE_SPAN_N("beta.convolve", h);
    const LevelKeys& keys = EnsureKeys(h);
    const size_t cells = keys.view().num_cells();
    level.conv.assign(cells, 0);
    level.blocked.assign(cells, 0);
    LaplacianConvolveLevel(keys, options_.full_mask, pool_, level.conv.data());
    stats_.cells_convolved += cells;
    MetricsRegistry::Global().counter("beta.cells_convolved").Add(
        static_cast<int64_t>(cells));
    level.ready = true;
    return Status::OK();
  }

  // Index of the eligible cell with the largest convolution response at
  // level h, or -1 when every cell is blocked: tested already, or
  // overlapping a found β-cluster.
  // Each worker scans one contiguous slice; the slice winners are reduced
  // on the calling thread in slice order with ties broken by the lowest
  // cell index — exactly the cell the serial first-max scan would pick, so
  // the selection is identical for every thread count.
  int64_t SelectBestCell(int h, const std::vector<BetaCluster>& betas) {
    MRCC_TRACE_SPAN_N("beta.argmax", h);
    LevelData& level = levels_[static_cast<size_t>(h)];
    uint8_t* blocked = level.blocked.data();
    const CountingTree::LevelView view = tree_.Level(h);
    const int64_t* conv = level.conv.data();
    const double width = std::ldexp(1.0, -h);  // Cell side 1/2^h.
    const int num_threads = pool_.num_threads();
    std::vector<int64_t> slice_best(static_cast<size_t>(num_threads), -1);
    std::vector<int64_t> slice_val(static_cast<size_t>(num_threads),
                                   std::numeric_limits<int64_t>::min());
    pool_.ParallelFor(
        level.conv.size(), [&](int t, size_t begin, size_t end) {
          int64_t best = -1;
          int64_t best_val = std::numeric_limits<int64_t>::min();
          uint64_t coords[CountingTree::kMaxDims];
          // Block-skip: a vector max over each block rules it out wholesale
          // when nothing in it can beat the running best. Only valid once
          // a candidate is held (best >= 0) — before that, the serial scan
          // takes the first *eligible* cell regardless of its response, so
          // every cell must be visited.
          constexpr size_t kBlock = 256;
          for (size_t b = begin; b < end; b += kBlock) {
            const size_t b_end = std::min(end, b + kBlock);
            if (best >= 0 &&
                simd::MaxI64(conv + b, b_end - b) <= best_val) {
              continue;
            }
            for (size_t i = b; i < b_end; ++i) {
              if (blocked[i]) continue;
              if (conv[i] <= best_val && best >= 0) continue;
              view.CoordsInto(static_cast<uint32_t>(i), coords);
              if (SharesSpaceWithAny(coords, width, betas)) {
                blocked[i] = 1;
                continue;
              }
              best = static_cast<int64_t>(i);
              best_val = conv[i];
            }
          }
          slice_best[static_cast<size_t>(t)] = best;
          slice_val[static_cast<size_t>(t)] = best_val;
        });
    int64_t best = -1;
    int64_t best_val = std::numeric_limits<int64_t>::min();
    for (int t = 0; t < num_threads; ++t) {
      const size_t st = static_cast<size_t>(t);
      // Slices cover ascending index ranges, so requiring a strictly
      // greater value keeps the lowest-index cell on ties.
      if (slice_best[st] >= 0 && (best < 0 || slice_val[st] > best_val)) {
        best = slice_best[st];
        best_val = slice_val[st];
      }
    }
    return best;
  }

  // The paper's predicate: cell [l, u) has a positive-volume intersection
  // with the β-box [L, U] on every axis (consistent with SharesSpaceWith).
  bool SharesSpaceWithAny(const uint64_t* coords, double width,
                          const std::vector<BetaCluster>& betas) const {
    for (const BetaCluster& beta : betas) {
      bool overlaps = true;
      for (size_t j = 0; j < d_; ++j) {
        const double l = static_cast<double>(coords[j]) * width;
        const double u = l + width;
        if (u <= beta.lower[j] || l >= beta.upper[j]) {
          overlaps = false;
          break;
        }
      }
      if (overlaps) return true;
    }
    return false;
  }

  // The statistical test around center cell a_h plus, on success, the MDL
  // relevance cut and bound construction. Returns true when a_h seeds a
  // new β-cluster (Algorithm 2, lines 14-30); Internal when the tree is
  // corrupt (the center cell has no parent cell).
  Result<bool> TestAndDescribe(int h, uint32_t center, BetaCluster* out) {
    MRCC_TRACE_SPAN_N("beta.test", h);
    ++stats_.candidates_tested;
    stats_.binomial_tests += d_;
    const LevelKeys& keys = *levels_[static_cast<size_t>(h)].keys;
    const std::vector<uint64_t> coords = keys.view().Coords(center);
    // Parent cell a_{h-1} and its per-axis face neighbors at level h-1.
    const LevelKeys& parent_keys = EnsureKeys(h - 1);
    const uint32_t* parent_counts = tree_.Level(h - 1).counts().data();
    std::vector<uint64_t> parent_coords(d_);
    for (size_t j = 0; j < d_; ++j) parent_coords[j] = coords[j] >> 1;
    const int64_t parent = parent_keys.Find(parent_coords.data());
    // The center cell's ancestor always exists in a structurally valid
    // tree; a miss here means the tree is corrupt.
    if (parent < 0) {
      return Status::Internal("β-search: level-" + std::to_string(h) +
                              " cell " + std::to_string(center) +
                              " has no parent cell; corrupt tree");
    }
    const uint32_t parent_n = parent_counts[parent];
    const std::span<const uint32_t> parent_half =
        tree_.Level(h - 1).half_of(static_cast<uint32_t>(parent));

    const uint64_t parent_max = (uint64_t{1} << (h - 1)) - 1;
    std::vector<int64_t> cp(d_), np(d_);
    bool significant = false;
    for (size_t j = 0; j < d_; ++j) {
      // nP_j: points in the parent and its two face neighbors along e_j
      // (the paper's internal + external neighbors); together they form six
      // consecutive half-cell regions along e_j.
      const int64_t below =
          parent_keys.FindFaceNeighbor(parent_coords.data(), j, -1);
      const int64_t above =
          parent_keys.FindFaceNeighbor(parent_coords.data(), j, +1);
      np[j] = static_cast<int64_t>(parent_n) +
              (below >= 0 ? parent_counts[below] : 0) +
              (above >= 0 ? parent_counts[above] : 0);
      // cP_j: points in the half of the parent that contains a_h.
      const bool lower_half = (coords[j] & 1) == 0;
      const int64_t lower_count = parent_half[j];
      cp[j] = lower_half ? lower_count
                         : static_cast<int64_t>(parent_n) - lower_count;
      // One-sided binomial test: under the null the central region holds
      // Binomial(nP_j, p) points where p = |center region| / |existing
      // regions|. In the interior all six regions exist (the paper's
      // p = 1/6); at the space border one parent-level neighbor is
      // structurally outside the cube, leaving four regions (p = 1/4) —
      // notably the whole of level 2, whose parent grid has two cells per
      // axis. Keeping 1/6 there would reject uniform data whenever counts
      // are large (every low-dimensional level-2 candidate would "stand
      // out"), flooding the result with fat spurious boxes.
      // Binomial-test preconditions (paper §III-B): the central region is
      // a subset of the neighborhood, so 0 <= cP_j <= nP_j must hold
      // before asking for a critical value — a violation means the
      // half-space counts or neighbor counts are corrupt.
      MRCC_DCHECK_GE(cp[j], 0);
      MRCC_DCHECK_LE(cp[j], np[j]);
      const int regions =
          (parent_coords[j] == 0 ? 4 : 6) -
          (parent_coords[j] == parent_max ? 2 : 0);
      const double p = 1.0 / static_cast<double>(regions);
      const int64_t critical = BinomialCriticalValue(np[j], p, options_.alpha);
      if (cp[j] >= critical) significant = true;
    }
    if (!significant) return false;
    ++stats_.accepted;

    // Relevances r[j] = 100 * cP_j / nP_j, MDL-cut into relevant axes.
    std::vector<double> relevance(d_);
    for (size_t j = 0; j < d_; ++j) {
      relevance[j] =
          np[j] > 0 ? 100.0 * static_cast<double>(cp[j]) /
                          static_cast<double>(np[j])
                    : 0.0;
    }
    std::vector<double> sorted = relevance;
    std::sort(sorted.begin(), sorted.end());
    const size_t cut = MdlBestCut(sorted);
    const double threshold = sorted[cut];
    // Cut position p: axes [p, d) of the sorted relevances form the
    // relevant (high) partition. The distribution across a run shows how
    // decisively MDL separates the subspace from the noise axes.
    MetricsRegistry::Global().histogram("beta.mdl_cut_position").Record(
        static_cast<int64_t>(cut));

    out->relevance = relevance;
    out->relevant.assign(d_, false);
    out->lower.assign(d_, 0.0);
    out->upper.assign(d_, 1.0);
    out->level = h;

    const uint32_t* counts = tree_.Level(h).counts().data();
    out->center_count = counts[center];
    // Growth floor: the paper grows toward any neighbor "containing at
    // least one point"; we additionally require a non-negligible share of
    // the center's mass so that in low-dimensional spaces — where
    // background noise leaves almost no cell empty — boxes do not inflate
    // by a noise cell per side and chain-merge unrelated clusters.
    const uint32_t growth_floor = std::max<uint32_t>(
        1, static_cast<uint32_t>(out->center_count / 20));

    const double width = std::ldexp(1.0, -h);
    for (size_t j = 0; j < d_; ++j) {
      if (relevance[j] < threshold) continue;  // Irrelevant: spans [0,1].
      out->relevant[j] = true;
      double lo = static_cast<double>(coords[j]) * width;
      double hi = lo + width;
      const int64_t below = keys.FindFaceNeighbor(coords.data(), j, -1);
      if (below >= 0 && counts[below] >= growth_floor) lo -= width;
      const int64_t above = keys.FindFaceNeighbor(coords.data(), j, +1);
      if (above >= 0 && counts[above] >= growth_floor) hi += width;
      out->lower[j] = std::max(0.0, lo);
      out->upper[j] = std::min(1.0, hi);
    }
    int64_t relevant_axes = 0;
    for (size_t j = 0; j < d_; ++j) {
      if (out->relevant[j]) ++relevant_axes;
    }
    MetricsRegistry::Global().histogram("beta.relevant_axes").Record(
        relevant_axes);
    return true;
  }

  const CountingTree& tree_;
  const size_t d_;
  const BetaFinderOptions options_;
  ThreadPool pool_;
  std::vector<LevelData> levels_;
  BetaSearchStats stats_;
};

}  // namespace

Result<BetaSearchResult> RunBetaSearch(const CountingTree& tree,
                                       const BetaFinderOptions& options,
                                       BudgetTracker* budget) {
  // The argmax breaks ties by the canonical cell order only a sealed
  // tree has, so searching an unsealed one would differ from the serial
  // result only when a tie happens to occur: reject it outright.
  if (!tree.sealed()) {
    return Status::InvalidArgument(
        "β-search needs a sealed tree: call Seal() after inserting");
  }
  BetaFinderOptions effective = options;
  // The full order-3 mask costs O(3^d) per cell; above kMaxFullMaskDims it
  // would effectively hang. High-level drivers (MrCC::Run) reject the
  // combination up front; this low-level entry point degrades to the
  // face-only mask instead (identical asymptotics to the paper's
  // production configuration).
  if (effective.full_mask && tree.num_dims() > kMaxFullMaskDims) {
    effective.full_mask = false;
  }
  BetaClusterFinder finder(tree, effective);
  Result<std::vector<BetaCluster>> betas = finder.Run(budget);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("beta.candidates_tested").Add(
      static_cast<int64_t>(finder.stats().candidates_tested));
  metrics.counter("beta.binomial_tests").Add(
      static_cast<int64_t>(finder.stats().binomial_tests));
  metrics.counter("beta.binomial_accepted").Add(
      static_cast<int64_t>(finder.stats().accepted));
  if (!betas.ok()) return betas.status();
  return BetaSearchResult{std::move(betas).value(), finder.stats()};
}

}  // namespace mrcc

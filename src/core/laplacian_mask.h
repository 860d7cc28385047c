// Integer Laplacian convolution masks over Counting-tree levels (§III-B).
//
// MrCC spots density transitions by convolving each tree level with an
// order-3 integer approximation of the Laplacian filter. The production
// mask is the "face-only" variant — weight 2d at the center, -1 on the 2d
// face elements, 0 on the 3^d - 2d - 1 corners — which convolves a cell in
// O(d) instead of O(3^d).
//
// A level is convolved whole (LaplacianConvolveLevel). A mask is a
// center weight minus the counts at offsets that come in ± pairs; for
// each positive offset o one merge-join over the level's sorted keys
// (LevelKeys) finds every pair of cells o apart, confirms it by an exact
// coordinate compare, and subtracts each cell's count from the other's
// response. The face-only mask is d joins: O(d) sequential work per cell,
// no random probes.
//
// The full order-3 mask (center 3^d - 1, everything else -1, Fig. 2a) is
// also provided for the ablation study: the same joins over its
// (3^d - 1)/2 positive offsets, exponential in d and gated to small
// dimensionalities.

#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/counting_tree.h"
#include "core/level_keys.h"

namespace mrcc {

/// Maximum dimensionality accepted by the full mask (3^d cells per
/// convolution grows fast; 12 keeps it under ~0.5M neighbor offsets).
inline constexpr size_t kMaxFullMaskDims = 12;

/// Positive offsets of a mask, one per ± pair: d (face-only, offset k is
/// e_k) or (3^d - 1)/2 (full, offset k is the k-th {-1,0,1}^d odometer
/// code after the center). Full requires d <= kMaxFullMaskDims.
size_t PositiveOffsets(size_t d, bool full_mask);

/// The join kernel. For every positive offset o with index in
/// [begin, end) and every pair of materialized cells c, c + o of
/// keys.view(): acc[c] -= n(c + o) and acc[c + o] -= n(c). Summed over
/// all PositiveOffsets(), acc gains minus the mask's neighbor term.
void SubtractNeighborPairs(const LevelKeys& keys, bool full_mask,
                           size_t begin, size_t end, int64_t* acc);

/// Laplacian responses (face-only, or full when `full_mask`) of every cell
/// of keys.view() into out[0..num_cells), arena order. Workers split the
/// offsets into private integer accumulators (worker 0 into `out`), so
/// the responses are identical for every thread count.
void LaplacianConvolveLevel(const LevelKeys& keys, bool full_mask,
                            ThreadPool& pool, int64_t* out);

}  // namespace mrcc

// Integer Laplacian convolution masks over Counting-tree levels (§III-B).
//
// MrCC spots density transitions by convolving each tree level with an
// order-3 integer approximation of the Laplacian filter. The production
// mask is the "face-only" variant — weight 2d at the center, -1 on the 2d
// face elements, 0 on the 3^d - 2d - 1 corners — which convolves a cell in
// O(d) instead of O(3^d).
//
// Two access tiers:
//   - The *Range functions are the production path: they convolve a
//     contiguous run of one level's packed arena, seeding all center
//     terms with one SIMD streaming pass (simd::ScaleU32ToI64) and
//     resolving neighbors through a LevelIndex, whose linear keys make
//     each probe one key step plus one hash instead of an O(level * d)
//     root descent — O(d) per cell for the face-only mask. The β-search
//     calls these from its parallel sweep.
//   - The single-cell functions convolve one cell through the tree's
//     FindCell walk — convenient for tests, reference checks and
//     benchmarks; results are identical.
//
// The full order-3 mask (center 3^d - 1, everything else -1, Fig. 2a) is
// also provided for the ablation study and for testing the face-only
// shortcut; it is exponential in d and gated to small dimensionalities.

#pragma once

#include <cstdint>
#include <vector>

#include "core/counting_tree.h"
#include "core/level_index.h"

namespace mrcc {

/// Face-only Laplacian responses of cells [begin, end) of `view`, written
/// to out[begin..end). `index` must be built over the same level.
void FaceLaplacianConvolveRange(const CountingTree::LevelView& view,
                                const LevelIndex& index, uint32_t begin,
                                uint32_t end, int64_t* out);

/// Face-only Laplacian response of the cell at `coords` on `level`:
///   2d * n  -  sum over axes of (lower face neighbor count
///                               + upper face neighbor count).
/// Missing neighbors (border or empty space) contribute 0, consistent with
/// the sparse tree storing only populated cells.
int64_t FaceLaplacianConvolve(const CountingTree& tree, int level,
                              const std::vector<uint64_t>& coords,
                              uint32_t center_count);

/// Maximum dimensionality accepted by the full-mask routines (3^d cells
/// per convolution grows fast; 12 keeps it under ~0.5M neighbor probes).
inline constexpr size_t kMaxFullMaskDims = 12;

/// Full order-3 Laplacian responses of cells [begin, end) of `view` (the
/// ablation path). Requires num_dims <= kMaxFullMaskDims.
void FullLaplacianConvolveRange(const CountingTree::LevelView& view,
                                const LevelIndex& index, uint32_t begin,
                                uint32_t end, int64_t* out);

/// Full order-3 Laplacian response: (3^d - 1) * n - sum of all 3^d - 1
/// neighbor counts (faces and corners). Requires d <= kMaxFullMaskDims.
int64_t FullLaplacianConvolve(const CountingTree& tree, int level,
                              const std::vector<uint64_t>& coords,
                              uint32_t center_count);

/// Materializes the face-only mask as a dense 3^d weight array in odometer
/// order (offset vector in {-1,0,1}^d, last axis fastest). Test/debug aid;
/// requires d <= kMaxFullMaskDims.
std::vector<int64_t> DenseFaceMask(size_t d);

/// Materializes the full order-3 mask the same way.
std::vector<int64_t> DenseFullMask(size_t d);

}  // namespace mrcc

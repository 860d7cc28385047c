#include "core/laplacian_mask.h"

#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace mrcc {
namespace {

size_t Pow3(size_t d) {
  size_t p = 1;
  for (size_t i = 0; i < d; ++i) p *= 3;
  return p;
}

}  // namespace

size_t PositiveOffsets(size_t d, bool full_mask) {
  if (!full_mask) return d;
  MRCC_DCHECK_LE(d, kMaxFullMaskDims);
  return (Pow3(d) - 1) / 2;
}

void SubtractNeighborPairs(const LevelKeys& keys, bool full_mask,
                           size_t begin, size_t end, int64_t* acc) {
  const CountingTree::LevelView& view = keys.view();
  const size_t d = view.num_dims();
  MRCC_DCHECK_LE(end, PositiveOffsets(d, full_mask));
  const uint32_t* counts = view.counts().data();
  const size_t center = full_mask ? PositiveOffsets(d, true) : 0;
  uint64_t offset[CountingTree::kMaxDims];
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t k = begin; k < end; ++k) {
    // Offset k — e_k, or the k-th odometer code after the center — with
    // entries mod 2^64, and its key shift Σ_j o_j·K_j.
    size_t code = center + 1 + k;
    uint64_t shift = 0;
    for (size_t j = d; j-- > 0;) {
      offset[j] = full_mask ? uint64_t{code % 3} - 1 : (j == k);
      code /= 3;
      shift += offset[j] * keys.axis_key(j);
    }
    // Key matches first, then their exact compares in a loop of their
    // own, so the compares' cache misses do not stall the join.
    pairs.clear();
    keys.ForEachShiftedPair(shift, [&](uint32_t a, uint32_t b) {
      pairs.emplace_back(a, b);
    });
    for (const auto& [a, b] : pairs) {
      // Exact compare: b must sit at a + offset (an off-cube step wraps
      // past every valid coordinate and never matches).
      if (!view.AtOffset(a, b, offset)) continue;
      acc[a] -= counts[b];
      acc[b] -= counts[a];
    }
  }
}

void LaplacianConvolveLevel(const LevelKeys& keys, bool full_mask,
                            ThreadPool& pool, int64_t* out) {
  const CountingTree::LevelView& view = keys.view();
  const size_t n = view.num_cells();
  const size_t offsets = PositiveOffsets(view.num_dims(), full_mask);
  // Center weight = number of neighbor offsets: 2d, or 3^d - 1.
  simd::ScaleU32ToI64(out, view.counts().data(), n,
                      2 * static_cast<int64_t>(offsets));
  std::vector<std::vector<int64_t>> partial(
      static_cast<size_t>(pool.num_threads()));
  pool.ParallelFor(offsets, [&](int t, size_t begin, size_t end) {
    std::vector<int64_t>& mine = partial[static_cast<size_t>(t)];
    if (t > 0) mine.assign(n, 0);
    SubtractNeighborPairs(keys, full_mask, begin, end,
                          t > 0 ? mine.data() : out);
  });
  for (const std::vector<int64_t>& acc : partial) {
    for (size_t i = 0; i < acc.size(); ++i) out[i] += acc[i];
  }
}

int64_t FaceLaplacianConvolve(const CountingTree& tree, int level,
                              const std::vector<uint64_t>& coords,
                              uint32_t center_count) {
  const size_t d = tree.num_dims();
  MRCC_DCHECK_GE(level, 1);
  MRCC_DCHECK_LT(level, tree.num_resolutions());
  MRCC_DCHECK_EQ(coords.size(), d);
  int64_t acc = 2 * static_cast<int64_t>(d) * center_count;
  for (size_t j = 0; j < d; ++j) {
    acc -= tree.FaceNeighborCount(level, coords, j, -1);
    acc -= tree.FaceNeighborCount(level, coords, j, +1);
  }
  return acc;
}

int64_t FullLaplacianConvolve(const CountingTree& tree, int level,
                              const std::vector<uint64_t>& coords,
                              uint32_t center_count) {
  const size_t d = tree.num_dims();
  MRCC_DCHECK_LE(d, kMaxFullMaskDims);
  MRCC_DCHECK_GE(level, 1);
  MRCC_DCHECK_LT(level, tree.num_resolutions());
  MRCC_DCHECK_EQ(coords.size(), d);
  const uint64_t max_coord = (uint64_t{1} << level) - 1;

  const size_t cells = Pow3(d);
  int64_t neighbor_sum = 0;
  std::vector<uint64_t> probe(d);
  // Odometer over {-1,0,1}^d offsets.
  for (size_t code = 0; code < cells; ++code) {
    size_t rem = code;
    bool is_center = true;
    bool in_bounds = true;
    for (size_t j = d; j-- > 0;) {
      const int off = static_cast<int>(rem % 3) - 1;
      rem /= 3;
      if (off != 0) is_center = false;
      if (off < 0 && coords[j] == 0) in_bounds = false;
      if (off > 0 && coords[j] == max_coord) in_bounds = false;
      probe[j] = coords[j] + static_cast<uint64_t>(static_cast<int64_t>(off));
    }
    if (is_center || !in_bounds) continue;
    CountingTree::CellRef ref;
    if (tree.FindCell(level, probe, &ref)) neighbor_sum += tree.Count(ref);
  }
  const int64_t center_weight = static_cast<int64_t>(cells) - 1;
  return center_weight * center_count - neighbor_sum;
}

std::vector<int64_t> DenseFaceMask(size_t d) {
  MRCC_DCHECK_GT(d, 0u);
  MRCC_DCHECK_LE(d, kMaxFullMaskDims);
  const size_t cells = Pow3(d);
  std::vector<int64_t> mask(cells, 0);
  for (size_t code = 0; code < cells; ++code) {
    size_t rem = code;
    size_t nonzero_axes = 0;
    for (size_t j = 0; j < d; ++j) {
      if (rem % 3 != 1) ++nonzero_axes;
      rem /= 3;
    }
    if (nonzero_axes == 0) {
      mask[code] = 2 * static_cast<int64_t>(d);  // Center.
    } else if (nonzero_axes == 1) {
      mask[code] = -1;  // Face element.
    }
  }
  return mask;
}

std::vector<int64_t> DenseFullMask(size_t d) {
  MRCC_DCHECK_GT(d, 0u);
  MRCC_DCHECK_LE(d, kMaxFullMaskDims);
  const size_t cells = Pow3(d);
  std::vector<int64_t> mask(cells, -1);
  // Center index: offset 0 on every axis -> digit 1 everywhere.
  size_t center = 0;
  for (size_t j = 0; j < d; ++j) center = center * 3 + 1;
  mask[center] = static_cast<int64_t>(cells) - 1;
  return mask;
}

}  // namespace mrcc

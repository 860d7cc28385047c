#include "core/laplacian_mask.h"

#include <cmath>

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

void FaceLaplacianConvolveRange(const CountingTree::LevelView& view,
                                const LevelIndex& index, uint32_t begin,
                                uint32_t end, int64_t* out) {
  const size_t d = view.num_dims();
  MRCC_DCHECK_EQ(index.level(), view.level());
  MRCC_DCHECK_LE(end, view.num_cells());
  MRCC_DCHECK_LE(begin, end);
  const uint32_t* counts = view.counts().data();
  // Seed every response with the center term 2d * n in one streaming
  // pass, then subtract the face neighbors cell by cell.
  simd::ScaleU32ToI64(out + begin, counts + begin, end - begin,
                      2 * static_cast<int64_t>(d));
  for (uint32_t i = begin; i < end; ++i) {
    out[i] -= index.FaceNeighborSum(i, counts);
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

void FullLaplacianConvolveRange(const CountingTree::LevelView& view,
                                const LevelIndex& index, uint32_t begin,
                                uint32_t end, int64_t* out) {
  const size_t d = view.num_dims();
  MRCC_DCHECK_LE(d, kMaxFullMaskDims);
  MRCC_DCHECK_EQ(index.level(), view.level());
  MRCC_DCHECK_LE(end, view.num_cells());
  MRCC_DCHECK_LE(begin, end);
  const uint32_t* counts = view.counts().data();
  const uint64_t max_coord = (uint64_t{1} << view.level()) - 1;
  const size_t cells = Pow3(d);
  const int64_t center_weight = static_cast<int64_t>(cells) - 1;
  std::vector<uint64_t> probe(d);
  for (uint32_t i = begin; i < end; ++i) {
    const uint64_t* coords = index.CellCoords(i);
    const uint64_t center_key = index.Key(coords);
    int64_t neighbor_sum = 0;
    // Odometer over {-1,0,1}^d offsets; the probe key moves by
    // off_j * K_j per axis, so no probe rehashes its coordinates.
    for (size_t code = 0; code < cells; ++code) {
      size_t rem = code;
      bool is_center = true;
      bool in_bounds = true;
      uint64_t key = center_key;
      for (size_t j = d; j-- > 0;) {
        const int off = static_cast<int>(rem % 3) - 1;
        rem /= 3;
        if (off != 0) is_center = false;
        if (off < 0 && coords[j] == 0) in_bounds = false;
        if (off > 0 && coords[j] == max_coord) in_bounds = false;
        const uint64_t step = static_cast<uint64_t>(static_cast<int64_t>(off));
        probe[j] = coords[j] + step;
        key += step * index.axis_key(j);
      }
      if (is_center || !in_bounds) continue;
      const int64_t found = index.FindKeyed(probe.data(), key);
      if (found >= 0) neighbor_sum += counts[found];
    }
    out[i] = center_weight * counts[i] - neighbor_sum;
  }
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

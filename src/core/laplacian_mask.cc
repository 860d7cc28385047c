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

}  // namespace mrcc

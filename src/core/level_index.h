// LevelIndex: a flat coords -> cell hash table over one level of a packed
// CountingTree.
//
// CountingTree::FindCell locates a cell by walking down from the root —
// O(level) node lookups per query. The β-cluster search does millions of
// such queries (2d face neighbors per convolved cell, plus parent and
// growth lookups), all against the *same* level, so it pays to spend one
// linear pass per level building a direct coordinate table.
//
// Keys are linear in the coordinates: k(c) = level + Σ_j c_j·K_j
// (mod 2^64) with fixed, odd, per-axis constants K_j, and a cell's slot
// is picked by Mix64(k). Moving one step along axis j changes the key by
// exactly ±K_j, so a cell's 2d face neighbors are probed from its own key
// with one add and one mix each: the face-only convolution costs O(d)
// hashing work per cell (the paper's §III-B bound), not the O(d²) of
// rehashing every neighbor's d coordinates.
//
// Open addressing with linear probing over a power-of-two array of 32-bit
// slots. A slot packs the cell's arena index into its low bits and a tag
// (top bits of the mix's high half) into the bits the index leaves free,
// so a probe that lands on another cell's slot is usually rejected
// without touching the coordinate copy, at no extra memory. A tag match
// is confirmed by an exact compare against the packed coordinates (d
// uint64 per cell, cell-major), so every lookup returns exactly the cell
// a root descent would — the hash only decides where to look, never what
// is found.
//
// The index is a transient, read-side acceleration structure: it lives in
// the search stage (built lazily per level), never inside the tree, so
// tree memory accounting and the budget-pressure behavior are unchanged.

#pragma once

#include <cstdint>
#include <vector>

#include "core/counting_tree.h"

namespace mrcc {

class LevelIndex {
 public:
  /// Builds the table from every cell of `view` (one pass, serial —
  /// construction order must not depend on thread count).
  explicit LevelIndex(const CountingTree::LevelView& view);

  int level() const { return level_; }

  /// The linear key k(coords) = level + Σ_j coords[j]·axis_key(j).
  uint64_t Key(const uint64_t* coords) const;

  /// K_j: the key step of one cell along `axis`.
  uint64_t axis_key(size_t axis) const { return axis_keys_[axis]; }

  /// Arena index of the cell at `coords` (d values in [0, 2^level)), or
  /// -1 when that region holds no points.
  int64_t Find(const uint64_t* coords) const {
    return FindKeyed(coords, Key(coords));
  }

  /// Find() with the key supplied by the caller; `key` must equal
  /// Key(coords) (callers stepping through neighbors update it in O(1)).
  int64_t FindKeyed(const uint64_t* coords, uint64_t key) const;

  /// The face neighbor's arena index along `axis` in direction `dir`
  /// (-1 / +1), or -1 when off the cube or not materialized.
  int64_t FindFaceNeighbor(const uint64_t* coords, size_t axis,
                           int dir) const;

  /// Σ counts[n] over the existing face neighbors n of cell `cell` (both
  /// directions on every axis) — the neighbor term of the face-only
  /// Laplacian. `counts` is the level's per-cell count array.
  int64_t FaceNeighborSum(uint32_t cell, const uint32_t* counts) const;

  /// The packed coordinates (d values) of cell `cell` — the copy the
  /// index built at construction, handed back so callers iterating a
  /// level don't recompute them.
  const uint64_t* CellCoords(uint32_t cell) const {
    return coords_.data() + static_cast<size_t>(cell) * num_dims_;
  }

  size_t MemoryBytes() const;

 private:
  // Vacant slot. Never a packed cell: cell_mask_ > every arena index.
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  // Probes the table for `key`; `matches(cell)` is the exact compare,
  // consulted only on a tag hit.
  template <typename Matches>
  int64_t Probe(uint64_t key, Matches matches) const;

  // FindFaceNeighbor() with `key` = Key(center) supplied by the caller.
  int64_t FindStep(const uint64_t* center, uint64_t key, size_t axis,
                   int dir) const;

  int level_;
  size_t num_dims_;
  uint64_t max_coord_;               // 2^level - 1.
  std::vector<uint64_t> axis_keys_;  // K_j, odd.
  std::vector<uint64_t> coords_;     // d per cell, cell-major.
  uint32_t cell_mask_;               // Low bits of a slot: the arena index.
  std::vector<uint32_t> slots_;      // Power-of-two open-addressing table.
};

}  // namespace mrcc

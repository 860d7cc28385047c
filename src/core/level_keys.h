// LevelKeys: one level of a packed CountingTree as its cells sorted by a
// linear key k(c) = level + Σ_j c_j·K_j (mod 2^64), K_j fixed and odd —
// the one lookup of a cell by its coordinates (DESIGN.md §12); every
// other read of a sealed tree is a LevelView span.
//
// The cell at offset o has key k + Σ_j o_j·K_j, and adding a constant
// mod 2^64 only rotates a sorted array, so all pairs of cells one offset
// apart come from one linear merge-join of the keys against themselves
// (ForEachShiftedPair), and a point lookup is a search of the keys.
// Keys only say where to look: callers confirm every match by an exact
// coordinate compare. 12 bytes per cell (key + arena index); no
// coordinate copy.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/counting_tree.h"

namespace mrcc {

class LevelKeys {
 public:
  /// Keys and sorts every cell of `view`, whose tree must outlive this.
  explicit LevelKeys(const CountingTree::LevelView& view);

  const CountingTree::LevelView& view() const { return view_; }

  /// The linear key k(coords) = level + Σ_j coords[j]·axis_key(j).
  uint64_t Key(const uint64_t* coords) const;

  /// K_j: the key step of one cell along `axis`.
  uint64_t axis_key(size_t axis) const { return axis_keys_[axis]; }

  /// Arena index of the cell at `coords` (d values), or -1 if none.
  int64_t Find(const uint64_t* coords) const;

  /// The face neighbor's arena index along `axis` in direction `dir`
  /// (-1 / +1), or -1 when off the cube or not materialized.
  int64_t FindFaceNeighbor(const uint64_t* coords, size_t axis,
                           int dir) const;

  /// Calls match(source, target) for the arena indices of every cell pair
  /// with k(target) = k(source) + shift (mod 2^64), in one pass over the
  /// sorted keys. Key equality only: the caller confirms coordinates.
  template <typename Match>
  void ForEachShiftedPair(uint64_t shift, Match match) const;

  /// Test-only: every K_j equal, so that distinct cells collide.
  struct TestPeer {
    static LevelKeys EqualAxisKeys(const CountingTree::LevelView& view,
                                   uint64_t axis_key) {
      return LevelKeys(view, std::vector<uint64_t>(view.num_dims(), axis_key));
    }
  };

 private:
  LevelKeys(const CountingTree::LevelView& view,
            std::vector<uint64_t> axis_keys);

  CountingTree::LevelView view_;
  std::vector<uint64_t> axis_keys_;  // K_j, odd.
  std::vector<uint64_t> keys_;       // Ascending.
  std::vector<uint32_t> cells_;      // cells_[i] has key keys_[i].
};

template <typename Match>
void LevelKeys::ForEachShiftedPair(uint64_t shift, Match match) const {
  const uint64_t* keys = keys_.data();
  const size_t n = keys_.size();
  // Sources from the rotation point on wrap past 2^64: [rotation, n)
  // then [0, rotation) is the shifted sequence in ascending order.
  const size_t rotation = static_cast<size_t>(
      std::lower_bound(keys, keys + n, uint64_t{0} - shift) - keys);
  size_t target = 0;
  const auto join = [&](size_t source, size_t source_end) {
    while (source < source_end && target < n) {
      const uint64_t want = keys[source] + shift;
      const uint64_t have = keys[target];
      if (want == have) [[unlikely]] {
        // Every target of the equal-key run pairs with this source; the
        // next source may share the key, so the cursor stays.
        for (size_t t = target; t < n && keys[t] == want; ++t) {
          match(cells_[source], cells_[t]);
        }
        ++source;
        continue;
      }
      // Matches are rare: advance without a data-dependent branch.
      source += want < have;
      target += have < want;
    }
  };
  join(rotation, n);
  join(0, rotation);
}

}  // namespace mrcc

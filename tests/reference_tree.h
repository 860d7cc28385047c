// A point-at-a-time Counting-tree for tests: one descent per point from
// the root, creating each missing cell and its child node on the way
// down, with nodes and cells kept in creation order — the construction
// the paper describes, with none of the engine's sorting or layout. Its
// Serialize() writes the SaveTree format (core/tree_io.h), so a test
// compares an engine tree's SerializeTree bytes against it directly.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/counting_tree.h"

namespace mrcc {
namespace testing {

/// Point-at-a-time Counting-tree in creation order, serialized in the
/// SaveTree format.
class ReferenceTree {
 public:
  ReferenceTree(size_t dims, int resolutions)
      : d_(dims),
        resolutions_(std::min(resolutions, CountingTree::kMaxResolutions + 1)) {
    nodes_.push_back(Node{1, std::vector<uint64_t>(dims, 0), {}});
  }

  void Insert(std::span<const double> point) {
    const int deepest = resolutions_ - 1;
    // grid[j] holds the first H binary digits of coordinate j; the
    // level-h digit is bit H - h.
    std::vector<uint64_t> grid(d_);
    for (size_t j = 0; j < d_; ++j) {
      grid[j] = static_cast<uint64_t>(point[j] * std::ldexp(1.0, resolutions_));
    }
    const auto digit = [&](size_t j, int h) {
      return (grid[j] >> (resolutions_ - h)) & 1;
    };
    const auto cells_of = [this](size_t node) -> std::vector<Cell>& {
      return nodes_[node].cells;
    };
    size_t node = 0;
    for (int h = 1; h <= deepest; ++h) {
      uint64_t loc = 0;
      for (size_t j = 0; j < d_; ++j) loc |= digit(j, h) << j;
      std::vector<Cell>& cells = cells_of(node);
      size_t c = 0;
      while (c < cells.size() && cells[c].loc != loc) ++c;
      if (c == cells.size()) {
        cells.push_back(Cell{loc, 0, -1, std::vector<uint32_t>(d_, 0)});
      }
      cells[c].n += 1;
      for (size_t j = 0; j < d_; ++j) {
        if (digit(j, h + 1) == 0) cells[c].lower[j] += 1;
      }
      if (h == deepest) break;
      if (cells[c].child < 0) {
        std::vector<uint64_t> base(d_);
        for (size_t j = 0; j < d_; ++j) {
          base[j] = nodes_[node].base[j] * 2 + ((loc >> j) & 1);
        }
        cells[c].child = static_cast<int32_t>(nodes_.size());
        // push_back may move `cells`; write the child first.
        nodes_.push_back(Node{h + 1, std::move(base), {}});
      }
      node = static_cast<size_t>(cells_of(node)[c].child);
    }
    ++total_;
  }

  std::string Serialize() const {
    std::string out = "MRTR";
    Append(uint32_t{1}, &out);
    Append(static_cast<uint32_t>(d_), &out);
    Append(static_cast<uint32_t>(resolutions_), &out);
    Append(total_, &out);
    Append(static_cast<uint64_t>(nodes_.size()), &out);
    for (const Node& node : nodes_) {
      Append(static_cast<int32_t>(node.level), &out);
      for (uint64_t b : node.base) Append(b, &out);
      Append(static_cast<uint64_t>(node.cells.size()), &out);
      for (const Cell& cell : node.cells) {
        Append(cell.loc, &out);
        Append(cell.n, &out);
        Append(cell.child, &out);
        for (uint32_t p : cell.lower) Append(p, &out);
      }
    }
    return out;
  }

 private:
  struct Cell {
    uint64_t loc;
    uint32_t n;
    int32_t child;
    std::vector<uint32_t> lower;  // Half-space counts P[j].
  };
  struct Node {
    int level;
    std::vector<uint64_t> base;
    std::vector<Cell> cells;
  };

  template <typename T>
  static void Append(T v, std::string* out) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  size_t d_;
  int resolutions_;
  uint64_t total_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace testing
}  // namespace mrcc

// The sorted-run build (counting_tree.h): Insert appends a digit key to a
// pending run, and Seal sorts the run and writes the packed tree, folding
// it in with InsertTree when the tree already holds points. The contract
// is byte identity with a point-at-a-time construction, so every case
// here compares SerializeTree bytes against a naive reference builder:
// one descent per point from the root, creating each missing cell and its
// child node on the way down, with nodes and cells kept in creation
// order. The reference lives only in this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/counting_tree.h"
#include "core/tree_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

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

CountingTree EmptyTree(size_t dims, int resolutions) {
  Result<CountingTree> tree = CountingTree::Empty(dims, resolutions);
  MRCC_CHECK(tree.ok());
  return std::move(*tree);
}

/// Bytes of one pending point: the digit key plus its index word.
size_t RunBytesPerPoint(size_t dims, int resolutions) {
  return 8 * ((dims * static_cast<size_t>(resolutions) + 63) / 64 + 1);
}

/// Clustered points with the edge coordinates 0, 0.5 and 1 - 2^-53 mixed
/// in, plus exact duplicates of earlier points.
Dataset EdgeData(size_t n, size_t dims, uint64_t seed) {
  Dataset data = testing::SmallClustered(n, dims, 3, seed, 0.2).data;
  const double edges[] = {0.0, 0.5, std::nextafter(1.0, 0.0)};
  Rng rng(seed + 1);
  Dataset out(0, dims);
  std::vector<double> p(dims);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    for (size_t j = 0; j < dims; ++j) {
      p[j] = rng.UniformDouble() < 0.1 ? edges[rng.UniformInt(3)] : data(i, j);
    }
    out.AppendPoint(p);
    if (i % 7 == 3) out.AppendPoint(p);  // A duplicate, back to back.
    if (i % 11 == 5) {  // And a repeat of an earlier point.
      const std::span<const double> earlier = out.Point(i / 2);
      p.assign(earlier.begin(), earlier.end());
      out.AppendPoint(p);
    }
  }
  return out;
}

void ExpectMatches(const CountingTree& tree, const ReferenceTree& ref) {
  ASSERT_TRUE(tree.sealed());
  const Status valid = tree.ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_EQ(SerializeTree(tree), ref.Serialize());
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests puts that print into each ctest name. Two 8-byte
// fields leave no padding, so the names are the same in every build.
struct Shape {
  size_t dims;
  size_t resolutions;
};
static_assert(std::has_unique_object_representations_v<Shape>);

class RunBuildShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(RunBuildShapeTest, InsertAndSealMatchesThePerPointDescent) {
  const Shape shape = GetParam();
  const Dataset data = EdgeData(600, shape.dims, 17 + shape.dims);
  const int resolutions = static_cast<int>(shape.resolutions);
  CountingTree tree = EmptyTree(shape.dims, resolutions);
  ReferenceTree ref(shape.dims, resolutions);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
    ref.Insert(data.Point(i));
  }
  EXPECT_FALSE(tree.sealed());
  EXPECT_EQ(tree.total_points(), data.NumPoints());
  tree.Seal();
  ExpectMatches(tree, ref);
}

TEST_P(RunBuildShapeTest, InsertAfterSealFoldsTheNextRun) {
  // Runs of 0, 1 and many points, each sealed: the first is adopted by
  // the empty tree, every later one goes through the InsertTree fold.
  const Shape shape = GetParam();
  const Dataset data = EdgeData(300, shape.dims, 29 + shape.dims);
  const int resolutions = static_cast<int>(shape.resolutions);
  CountingTree tree = EmptyTree(shape.dims, resolutions);
  ReferenceTree ref(shape.dims, resolutions);
  size_t next = 0;
  for (size_t run : {size_t{0}, size_t{1}, size_t{0}, size_t{120}, size_t{1},
                     data.NumPoints() - 122}) {
    for (size_t k = 0; k < run; ++k, ++next) {
      ASSERT_TRUE(tree.Insert(data.Point(next)).ok());
      ref.Insert(data.Point(next));
    }
    tree.Seal();
    ExpectMatches(tree, ref);
  }
  EXPECT_EQ(next, data.NumPoints());
}

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  return "d" + std::to_string(info.param.dims) + "_H" +
         std::to_string(info.param.resolutions);
}

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (size_t dims : std::vector<size_t>{1, 2, 14, 30, 62}) {
    for (size_t resolutions : {3, 4, 6}) shapes.push_back({dims, resolutions});
  }
  shapes.push_back({2, 40});  // Deep: the key spans two words.
  shapes.push_back({2, 63});  // The deepest H Empty() keeps.
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, RunBuildShapeTest,
                         ::testing::ValuesIn(Shapes()), ShapeName);

TEST(RunBuildTest, EmptyAndSinglePointRuns) {
  CountingTree empty = EmptyTree(3, 4);
  empty.Seal();
  ExpectMatches(empty, ReferenceTree(3, 4));

  const double point[] = {0.0, 0.5, std::nextafter(1.0, 0.0)};
  CountingTree one = EmptyTree(3, 4);
  ReferenceTree ref(3, 4);
  ASSERT_TRUE(one.Insert(point).ok());
  ref.Insert(point);
  one.Seal();
  ExpectMatches(one, ref);
}

TEST(RunBuildTest, MemoryBytesCountsThePendingRun) {
  const Dataset data = testing::UniformDataset(1000, 14, 5);
  CountingTree tree = EmptyTree(14, 4);
  const size_t empty_bytes = tree.MemoryBytes();
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
  }
  EXPECT_GE(tree.MemoryBytes(),
            empty_bytes + data.NumPoints() * RunBytesPerPoint(14, 4));
  tree.Seal();
  // The sealed tree keeps none of the run: a fresh build of the same
  // points reports the same footprint.
  Result<CountingTree> built = CountingTree::Build(data, 4);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(tree.MemoryBytes(), built->MemoryBytes());
}

TEST(RunBuildTest, RunSplitByTheByteCapStillMatches) {
  // d = 2, H = 8: 16 bytes a point, so the run fills kMaxRunBytes after
  // 2^21 points; the next Insert builds that run's tree first and the
  // rest of the stream is folded in at Seal.
  constexpr size_t kDims = 2;
  constexpr int kResolutions = 8;
  const size_t per_point = RunBytesPerPoint(kDims, kResolutions);
  const size_t cap_points = CountingTree::kMaxRunBytes / per_point;
  const size_t total = cap_points + 5000;
  Rng rng(99);
  CountingTree tree = EmptyTree(kDims, kResolutions);
  ReferenceTree ref(kDims, kResolutions);
  double point[kDims];
  for (size_t i = 0; i < total; ++i) {
    // Two dense blobs and a sparse background keep the tree small.
    const double centre = i % 3 == 0 ? 0.25 : 0.7;
    for (double& v : point) {
      v = i % 10 == 9 ? rng.UniformDouble()
                      : centre + 0.05 * rng.UniformDouble();
    }
    if (i == cap_points) {
      EXPECT_GE(tree.MemoryBytes(), CountingTree::kMaxRunBytes);
    }
    ASSERT_TRUE(tree.Insert(point).ok());
    ref.Insert(point);
    if (i == cap_points) {
      EXPECT_LT(tree.MemoryBytes(), CountingTree::kMaxRunBytes / 2);
    }
  }
  EXPECT_EQ(tree.total_points(), total);
  tree.Seal();
  ExpectMatches(tree, ref);
}

TEST(RunBuildTest, InsertTreeBetweenRunsKeepsStreamOrder) {
  // Insert -> InsertTree -> Insert -> Seal: the pending run is counted in
  // before the sealed sub-tree, and the last run after it.
  const Dataset data = EdgeData(400, 6, 41);
  const size_t a = 150, b = 300;
  CountingTree middle = EmptyTree(6, 5);
  for (size_t i = a; i < b; ++i) ASSERT_TRUE(middle.Insert(data.Point(i)).ok());
  middle.Seal();

  CountingTree tree = EmptyTree(6, 5);
  ReferenceTree ref(6, 5);
  for (size_t i = 0; i < data.NumPoints(); ++i) ref.Insert(data.Point(i));
  for (size_t i = 0; i < a; ++i) ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
  ASSERT_TRUE(tree.InsertTree(middle).ok());
  EXPECT_FALSE(tree.sealed());
  for (size_t i = b; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(tree.Insert(data.Point(i)).ok());
  }
  tree.Seal();
  ExpectMatches(tree, ref);
}

TEST(RunBuildTest, WindowGenerationSequenceMatches) {
  // The window engine's life cycle: each generation is an empty tree fed
  // by Insert and sealed; a snapshot folds the retained generations and
  // the unsealed filling one into an empty tree. At every snapshot the
  // fold must equal a descent over exactly the retained points.
  constexpr size_t kDims = 5;
  constexpr int kResolutions = 4;
  constexpr size_t kGenerationPoints = 97;
  constexpr size_t kRetained = 3;
  const Dataset data = EdgeData(700, kDims, 53);
  std::deque<std::pair<size_t, CountingTree>> generations;  // (first, tree)
  size_t filling_first = 0;
  CountingTree filling = EmptyTree(kDims, kResolutions);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(filling.Insert(data.Point(i)).ok());
    if (i + 1 - filling_first == kGenerationPoints) {
      filling.Seal();
      generations.emplace_back(filling_first, std::move(filling));
      filling = EmptyTree(kDims, kResolutions);
      filling_first = i + 1;
      if (generations.size() > kRetained) generations.pop_front();
    }
    if (i % 61 != 60) continue;
    SCOPED_TRACE("snapshot after point " + std::to_string(i));
    CountingTree window = EmptyTree(kDims, kResolutions);
    for (const auto& generation : generations) {
      ASSERT_TRUE(window.InsertTree(generation.second).ok());
    }
    filling.Seal();
    ASSERT_TRUE(window.InsertTree(filling).ok());
    window.Seal();
    ReferenceTree ref(kDims, kResolutions);
    const size_t first =
        generations.empty() ? filling_first : generations.front().first;
    for (size_t k = first; k <= i; ++k) ref.Insert(data.Point(k));
    ExpectMatches(window, ref);
  }
}

}  // namespace
}  // namespace mrcc

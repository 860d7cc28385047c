#include "core/tree_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/beta_cluster_finder.h"
#include "dist/shard_io.h"
#include "reference_tree.h"
#include "test_util.h"

namespace mrcc {
namespace {

TEST(TreeIoTest, SaveLoadRoundTrip) {
  LabeledDataset ds = testing::SmallClustered(3000, 6, 3, 71);
  Result<CountingTree> tree = CountingTree::Build(ds.data, 5);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(SerializeTree(*loaded), SerializeTree(*tree));
  EXPECT_EQ(loaded->total_points(), tree->total_points());
  std::remove(path.c_str());
}

// A sealed tree has one footprint however it was assembled: parsing its
// bytes must not leave growth slack in the level arenas, or a loaded
// shard over-reports to the memory budget.
TEST(TreeIoTest, ParsedTreeReportsTheBuiltTreesMemory) {
  LabeledDataset ds = testing::SmallClustered(5000, 14, 3, 73);
  Result<CountingTree> tree = CountingTree::Build(ds.data, 5);
  ASSERT_TRUE(tree.ok());
  const Result<CountingTree> parsed =
      ParseTree(SerializeTree(*tree), "round-trip");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->MemoryBytes(), tree->MemoryBytes());
}

TEST(TreeIoTest, LoadedTreeProducesIdenticalBetaClusters) {
  LabeledDataset ds = testing::SmallClustered(4000, 8, 3, 72);
  Result<CountingTree> tree = CountingTree::Build(ds.data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_beta.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());

  BetaFinderOptions options;
  const Result<BetaSearchResult> original = RunBetaSearch(*tree, options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::vector<BetaCluster>& from_original = original->betas;
  const Result<BetaSearchResult> reloaded = RunBetaSearch(*loaded, options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const std::vector<BetaCluster>& from_loaded = reloaded->betas;
  ASSERT_EQ(from_original.size(), from_loaded.size());
  for (size_t b = 0; b < from_original.size(); ++b) {
    EXPECT_EQ(from_original[b].lower, from_loaded[b].lower);
    EXPECT_EQ(from_original[b].upper, from_loaded[b].upper);
    EXPECT_EQ(from_original[b].relevant, from_loaded[b].relevant);
  }
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "mrcc_tree_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a tree at all";
  }
  EXPECT_FALSE(LoadTree(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTree("/nonexistent/tree.bin").ok());
}

TEST(TreeIoTest, LoadRejectsTruncation) {
  Dataset d = testing::UniformDataset(500, 4, 3);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_trunc.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 3));
  }
  EXPECT_FALSE(LoadTree(path).ok());
  std::remove(path.c_str());
}

TEST(TreeIoTest, TruncationErrorNamesSectionAndOffset) {
  // Exact-message contract: operators locate damage in a multi-megabyte
  // artifact from the section name and byte offset alone, so the format
  // is load-bearing, not cosmetic.
  Dataset d = testing::UniformDataset(300, 4, 4);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);

  // Cut inside the header: total_points is the u64 at offset 16.
  Result<CountingTree> r = ParseTree(bytes.substr(0, 20), "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "truncated tree file t.bin: header total_points ends at byte 20 "
            "(needed 8 bytes at offset 16)");

  // Cut one byte short: the stream ends with the last cell's half
  // counts (u32 each), so the final u32 comes up one byte short.
  r = ParseTree(bytes.substr(0, bytes.size() - 1), "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "truncated tree file t.bin: cell half count ends at byte " +
                std::to_string(bytes.size() - 1) + " (needed 4 bytes at offset " +
                std::to_string(bytes.size() - 4) + ")");
}

TEST(TreeIoTest, BadValueErrorNamesSectionAndOffset) {
  Dataset d = testing::UniformDataset(300, 4, 4);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  std::string bytes = SerializeTree(*tree);

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  Result<CountingTree> r = ParseTree(wrong_magic, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "bad magic in t.bin at byte 0: expected \"MRTR\"");

  std::string wrong_version = bytes;
  wrong_version[4] = '\x09';
  r = ParseTree(wrong_version, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "bad version in t.bin at byte 4: unsupported version 9 "
            "(reader supports 1)");
}

TEST(TreeIoTest, ParseTreeRejectsEveryProperPrefix) {
  // No prefix of a valid stream may parse: this is the guarantee the
  // shard-artifact checksum backstops, proven here byte by byte.
  Dataset d = testing::UniformDataset(120, 3, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);
  ASSERT_TRUE(ParseTree(bytes, "t.bin").ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<CountingTree> r = ParseTree(bytes.substr(0, len), "t.bin");
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST(TreeIoTest, ParseTreeRejectsTrailingGarbage) {
  Dataset d = testing::UniformDataset(120, 3, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  std::string bytes = SerializeTree(*tree);
  const size_t clean_size = bytes.size();
  bytes += "xx";
  Result<CountingTree> r = ParseTree(bytes, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "trailing garbage in tree file t.bin: 2 bytes past the last node "
            "(tree ends at byte " +
                std::to_string(clean_size) + ")");
}

TEST(TreeIoTest, SaveLeavesNoTempFileBehind) {
  Dataset d = testing::UniformDataset(200, 3, 11);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_atomic.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // The atomic-write temp file must have been renamed away.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream probe(tmp);
  EXPECT_FALSE(probe.good()) << "stale temp file " << tmp;
  std::remove(path.c_str());
}

// Reads the whole file, lets `patch` flip bytes, writes it back.
void PatchFile(const std::string& path,
               const std::function<void(std::string*)>& patch) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  patch(&contents);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

// Serialized layout offsets (tree_io.h): the header is magic(4) +
// version(4) + d(4) + H(4) + total_points(8) + node_count(8) = 32 bytes;
// the first node record is level(4) + d*8 base_coords + cell_count(8);
// each cell is loc(8) + n(4) + child(4) + d*4 half counts.
constexpr size_t kHeaderBytes = 32;

TEST(TreeIoTest, LoadRejectsCorruptHalfCount) {
  const size_t d = 4;
  Dataset data = testing::UniformDataset(500, d, 5);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_half.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // First half count of the first cell of the first node: a value above
  // the cell's point count is structurally impossible.
  const size_t offset = kHeaderBytes + 4 + d * 8 + 8 + 8 + 4 + 4;
  PatchFile(path, [&](std::string* c) {
    ASSERT_LT(offset + 4, c->size());
    (*c)[offset] = '\xff';
    (*c)[offset + 1] = '\xff';
    (*c)[offset + 2] = '\xff';
    (*c)[offset + 3] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("half-space"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsImplausibleCellCount) {
  const size_t d = 4;
  Dataset data = testing::UniformDataset(500, d, 6);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_cells.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // Cell count of the first node: a value far beyond what the file could
  // hold must fail cleanly instead of driving a multi-gigabyte resize.
  const size_t offset = kHeaderBytes + 4 + d * 8;
  PatchFile(path, [&](std::string* c) {
    ASSERT_LT(offset + 8, c->size());
    for (size_t b = 0; b < 7; ++b) (*c)[offset + b] = '\xff';
    (*c)[offset + 7] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsImplausibleNodeCount) {
  Dataset data = testing::UniformDataset(200, 3, 7);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = ::testing::TempDir() + "mrcc_tree_nodes.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  const size_t offset = 24;  // node_count field of the header.
  PatchFile(path, [&](std::string* c) {
    for (size_t b = 0; b < 7; ++b) (*c)[offset + b] = '\xff';
    (*c)[offset + 7] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(TreeMergeTest, ShardedBuildEqualsMonolithicBuild) {
  // Build one tree over the full dataset and two trees over disjoint
  // halves; the merged halves must equal the monolithic tree.
  LabeledDataset ds = testing::SmallClustered(5000, 7, 3, 73);
  const size_t n = ds.data.NumPoints();
  Dataset first(0, 7), second(0, 7);
  for (size_t i = 0; i < n; ++i) {
    auto p = ds.data.Point(i);
    (i < n / 2 ? first : second).AppendPoint(p);
  }
  Result<CountingTree> whole = CountingTree::Build(ds.data, 4);
  Result<CountingTree> a = CountingTree::Build(first, 4);
  Result<CountingTree> b = CountingTree::Build(second, 4);
  ASSERT_TRUE(whole.ok() && a.ok() && b.ok());
  ASSERT_TRUE(MergeTree(&*a, *b).ok());
  EXPECT_EQ(a->total_points(), whole->total_points());
  EXPECT_EQ(SerializeTree(*a), SerializeTree(*whole));
}

TEST(TreeMergeTest, MergedTreeClusterSearchMatches) {
  LabeledDataset ds = testing::SmallClustered(6000, 8, 3, 74);
  const size_t n = ds.data.NumPoints();
  Dataset first(0, 8), second(0, 8);
  for (size_t i = 0; i < n; ++i) {
    (i % 2 == 0 ? first : second).AppendPoint(ds.data.Point(i));
  }
  Result<CountingTree> whole = CountingTree::Build(ds.data, 4);
  Result<CountingTree> a = CountingTree::Build(first, 4);
  Result<CountingTree> b = CountingTree::Build(second, 4);
  ASSERT_TRUE(whole.ok() && a.ok() && b.ok());
  ASSERT_TRUE(MergeTree(&*a, *b).ok());

  BetaFinderOptions options;
  const Result<BetaSearchResult> whole_search =
      RunBetaSearch(*whole, options);
  ASSERT_TRUE(whole_search.ok()) << whole_search.status().ToString();
  const std::vector<BetaCluster>& from_whole = whole_search->betas;
  const Result<BetaSearchResult> merged_search = RunBetaSearch(*a, options);
  ASSERT_TRUE(merged_search.ok()) << merged_search.status().ToString();
  const std::vector<BetaCluster>& from_merged = merged_search->betas;
  ASSERT_EQ(from_whole.size(), from_merged.size());
  for (size_t i = 0; i < from_whole.size(); ++i) {
    EXPECT_EQ(from_whole[i].lower, from_merged[i].lower);
    EXPECT_EQ(from_whole[i].upper, from_merged[i].upper);
  }
}

TEST(TreeMergeTest, RejectsIncompatibleTrees) {
  Dataset d1 = testing::UniformDataset(100, 3, 1);
  Dataset d2 = testing::UniformDataset(100, 4, 2);
  Result<CountingTree> a = CountingTree::Build(d1, 4);
  Result<CountingTree> b = CountingTree::Build(d2, 4);
  Result<CountingTree> c = CountingTree::Build(d1, 5);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(MergeTree(&*a, *b).ok());  // Dim mismatch.
  EXPECT_FALSE(MergeTree(&*a, *c).ok());  // Resolution mismatch.
}

/// Points [begin, end) of `data` as their own dataset.
Dataset Slice(const Dataset& data, size_t begin, size_t end) {
  Dataset out(0, data.NumDims());
  for (size_t i = begin; i < end; ++i) out.AppendPoint(data.Point(i));
  return out;
}

TEST(TreeMergeTest, RejectedCallsLeaveTheDestinationUntouched) {
  const Dataset data = testing::UniformDataset(400, 4, 11);
  Result<CountingTree> a = CountingTree::Build(Slice(data, 0, 300), 4);
  ASSERT_TRUE(a.ok());
  const std::string before = SerializeTree(*a);

  // A source that took an Insert after its last Seal: its packed slices
  // no longer describe it, so folding it would misread the counts.
  Result<CountingTree> unsealed = CountingTree::Build(Slice(data, 300, 350), 4);
  ASSERT_TRUE(unsealed.ok());
  for (size_t i = 350; i < data.NumPoints(); ++i) {
    ASSERT_TRUE(unsealed->Insert(data.Point(i)).ok());
  }
  ASSERT_FALSE(unsealed->sealed());
  Result<CountingTree> wide =
      CountingTree::Build(testing::UniformDataset(50, 5, 12), 4);
  Result<CountingTree> deep = CountingTree::Build(Slice(data, 300, 400), 5);
  ASSERT_TRUE(wide.ok() && deep.ok());

  struct Case {
    const char* what;
    const CountingTree* source;
  };
  for (const Case& c : {Case{"unsealed source", &*unsealed},
                        Case{"itself", &*a},
                        Case{"dimensionality mismatch", &*wide},
                        Case{"resolution mismatch", &*deep}}) {
    SCOPED_TRACE(c.what);
    Result<MergeTreeStats> merged = MergeTree(&*a, *c.source);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(a->sealed());
    EXPECT_EQ(SerializeTree(*a), before);
    EXPECT_TRUE(a->ValidateInvariants().ok());
  }

  // Once sealed, the same source folds in normally.
  unsealed->Seal();
  Result<CountingTree> whole = CountingTree::Build(data, 4);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(MergeTree(&*a, *unsealed).ok());
  EXPECT_EQ(SerializeTree(*a), SerializeTree(*whole));
}

template <typename T>
void AppendBytes(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

TEST(TreeMergeTest, SourceOutOfCreationOrderIsRejectedUntouched) {
  // A tree whose pool lists a level-3 node before its level-2 parent:
  // one point in d = 1, H = 4, pool {root, leaf, middle}. Every other
  // invariant holds, but no stream creates this order and a fold cannot
  // reproduce a serial layout from it, so every parse entry point
  // rejects it: no fold ever sees it. The same bytes are the corpus seed
  // tree/out_of_creation_order.tree.
  std::string bytes = "MRTR";
  AppendBytes(uint32_t{1}, &bytes);  // version
  AppendBytes(uint32_t{1}, &bytes);  // d
  AppendBytes(uint32_t{4}, &bytes);  // H
  AppendBytes(uint64_t{1}, &bytes);  // total_points
  AppendBytes(uint64_t{3}, &bytes);  // node_count
  const auto node = [&bytes](int32_t level, int32_t child, uint32_t half) {
    AppendBytes(level, &bytes);
    AppendBytes(uint64_t{0}, &bytes);  // base coordinate
    AppendBytes(uint64_t{1}, &bytes);  // cell count
    AppendBytes(uint64_t{0}, &bytes);  // loc
    AppendBytes(uint32_t{1}, &bytes);  // n
    AppendBytes(child, &bytes);
    AppendBytes(half, &bytes);
  };
  node(1, 2, 1);   // root -> node 2
  node(3, -1, 0);  // leaf, child of node 2
  node(2, 1, 1);   // middle -> node 1
  const std::string violation =
      "tree invariant violated: node 2: cell 0: child node 1 is not after "
      "its parent's node";
  const auto expect_rejected = [&](const Status& status,
                                   const std::string& path) {
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_EQ(status.message(), "corrupt tree in " + path + ": " + violation);
  };
  expect_rejected(ParseTree(bytes, "reordered").status(), "reordered");

  const std::string path = ::testing::TempDir() + "mrcc_tree_reordered.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect_rejected(LoadTree(path).status(), path);

  // As a shard artifact: a valid one-point tree of the same shape has
  // the same length, so its tree bytes are swapped for these and the
  // footer re-stamped; the checksum then holds and ParseTree rejects.
  const double point[] = {0.1};
  Dataset one(0, 1);
  one.AppendPoint(point);
  Result<CountingTree> a = CountingTree::Build(one, 4);
  ASSERT_TRUE(a.ok());
  std::string artifact =
      dist::SerializeShardArtifact(*a, dist::ShardMeta{0, 1, 1});
  ASSERT_EQ(SerializeTree(*a).size(), bytes.size());
  artifact.replace(0, bytes.size(), bytes);
  testing::RestampShardArtifact(&artifact);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(artifact.data(), static_cast<std::streamsize>(artifact.size()));
  }
  expect_rejected(dist::ReadShardArtifact(path).status(), path);
  std::remove(path.c_str());
}

/// Every cell a point lies in, as {level, coordinates...}: level h's
/// coordinate on axis j is floor(x_j * 2^h).
using CellSet = std::set<std::vector<uint64_t>>;

void AddCells(std::span<const double> point, int resolutions,
              CellSet* cells) {
  for (int h = 1; h < resolutions; ++h) {
    std::vector<uint64_t> cell = {static_cast<uint64_t>(h)};
    for (double x : point) {
      cell.push_back(static_cast<uint64_t>(std::ldexp(x, h)));
    }
    cells->insert(std::move(cell));
  }
}

/// The counters a fold of `source`'s cells into a tree holding `present`
/// reports: shared cells merge, the rest are created, and each created
/// cell above the deepest level opens a node.
MergeTreeStats ExpectedFold(const CellSet& present, const CellSet& source,
                            int resolutions) {
  MergeTreeStats stats;
  for (const std::vector<uint64_t>& cell : source) {
    if (present.count(cell) != 0) {
      ++stats.cells_merged;
    } else {
      ++stats.cells_created;
      if (cell[0] + 1 < static_cast<uint64_t>(resolutions)) {
        ++stats.nodes_created;
      }
    }
  }
  return stats;
}

TEST(TreeFoldTest, OneSealAfterManyInsertTreesEqualsMergeFoldAndBuild) {
  // A stream cut into consecutive segments: a sealed tree over a segment
  // (empty and one-point trees included) or a run segment of Insert()s.
  // The stream starts empty or with a sealed non-empty tree. Two ways
  // take the same segments: one CountingTree::Fold over every segment's
  // tree (a run segment's flushed, the others sealed), and one
  // destination that Insert()s each run, so it holds a pending run when
  // the next tree arrives, and folds every tree in with MergeTree (a
  // Seal per source). Both must give the bytes of the point-at-a-time
  // reference over the whole stream; the fold must report the counters
  // of all segments' cells in order, and every MergeTree call those of
  // its source's cells against the cells already counted.
  enum Kind { kSealed, kTree, kRun };
  struct Segment {
    Kind kind;
    size_t points;
  };
  const std::vector<std::vector<Segment>> layouts = {
      {{kTree, 1}, {kTree, 0}, {kRun, 30}, {kTree, 250}, {kTree, 1},
       {kRun, 1}, {kTree, 117}},
      {{kSealed, 120}, {kTree, 0}, {kRun, 50}, {kTree, 1}, {kTree, 90},
       {kRun, 1}, {kTree, 0}, {kTree, 138}},
  };
  for (size_t d : {1, 2, 14, 30}) {
    for (int resolutions : {3, 4, 6}) {
      SCOPED_TRACE("d = " + std::to_string(d) +
                   ", H = " + std::to_string(resolutions));
      // Tight blobs make cells shared across segments; a uniform
      // background creates cells in every segment.
      Rng rng(1000 * d + static_cast<uint64_t>(resolutions));
      Dataset data(400, d);
      for (size_t i = 0; i < data.NumPoints(); ++i) {
        const double centre = i % 3 == 0 ? 0.3 : 0.65;
        for (size_t j = 0; j < d; ++j) {
          data(i, j) = i % 4 == 3 ? rng.UniformDouble()
                                  : centre + 0.1 * rng.UniformDouble();
        }
      }
      testing::ReferenceTree reference(d, resolutions);
      for (size_t i = 0; i < data.NumPoints(); ++i) {
        reference.Insert(data.Point(i));
      }
      const std::string golden = reference.Serialize();

      for (const std::vector<Segment>& layout : layouts) {
        SCOPED_TRACE("starts " + std::string(layout[0].kind == kSealed
                                                 ? "sealed"
                                                 : "empty"));
        std::vector<CountingTree> parts;
        Result<CountingTree> merged = CountingTree::Empty(d, resolutions);
        ASSERT_TRUE(merged.ok());
        CellSet present;
        MergeTreeStats want_fold;
        size_t begin = 0;
        for (const Segment& segment : layout) {
          const Dataset slice = Slice(data, begin, begin + segment.points);
          begin += segment.points;
          CellSet cells;
          for (size_t i = 0; i < slice.NumPoints(); ++i) {
            AddCells(slice.Point(i), resolutions, &cells);
          }
          const MergeTreeStats want =
              ExpectedFold(present, cells, resolutions);
          want_fold += want;
          if (segment.kind == kSealed) {
            Result<CountingTree> a = CountingTree::Build(slice, resolutions);
            Result<CountingTree> b = CountingTree::Build(slice, resolutions);
            ASSERT_TRUE(a.ok() && b.ok());
            parts.push_back(std::move(*a));
            merged = std::move(b);
          } else if (segment.kind == kRun) {
            Result<CountingTree> run = CountingTree::Empty(d, resolutions);
            ASSERT_TRUE(run.ok());
            for (size_t i = 0; i < slice.NumPoints(); ++i) {
              ASSERT_TRUE(run->Insert(slice.Point(i)).ok());
              ASSERT_TRUE(merged->Insert(slice.Point(i)).ok());
            }
            run->Flush();
            parts.push_back(std::move(*run));
          } else {
            Result<CountingTree> source =
                CountingTree::Build(slice, resolutions);
            ASSERT_TRUE(source.ok());
            Result<MergeTreeStats> m = MergeTree(&*merged, *source);
            ASSERT_TRUE(m.ok()) << m.status().ToString();
            EXPECT_TRUE(merged->sealed());
            EXPECT_EQ(m->cells_merged, want.cells_merged);
            EXPECT_EQ(m->cells_created, want.cells_created);
            EXPECT_EQ(m->nodes_created, want.nodes_created);
            parts.push_back(std::move(*source));
          }
          present.insert(cells.begin(), cells.end());
        }
        ASSERT_EQ(begin, data.NumPoints());
        std::vector<const CountingTree*> sources;
        for (const CountingTree& part : parts) sources.push_back(&part);
        MergeTreeStats got;
        Result<CountingTree> folded =
            CountingTree::Fold(sources, nullptr, &got);
        ASSERT_TRUE(folded.ok()) << folded.status().ToString();
        EXPECT_EQ(got.cells_merged, want_fold.cells_merged);
        EXPECT_EQ(got.cells_created, want_fold.cells_created);
        EXPECT_EQ(got.nodes_created, want_fold.nodes_created);
        merged->Seal();
        EXPECT_TRUE(folded->ValidateInvariants().ok());
        EXPECT_EQ(folded->total_points(), data.NumPoints());
        EXPECT_EQ(SerializeTree(*folded), golden);
        EXPECT_EQ(SerializeTree(*merged), golden);
      }
    }
  }
}

TEST(TreeFoldTest, KWayFoldOfFlushedAndSealedPartsEqualsBuild) {
  // A stream cut into 1-12 consecutive parts, folded by one
  // CountingTree::Fold: a part is flushed (Insert()s then Flush(), some
  // flushed several times) or sealed (Build), and parts may be empty or
  // hold one point. The fold, at 1, 2 and 3 threads, must give the bytes
  // of CountingTree::Build over the whole stream and of the
  // point-at-a-time reference, and the counters of counting the parts'
  // cells one part after another.
  enum Kind { kFlushed, kFlushedTwice, kSealed };
  struct Part {
    Kind kind;
    size_t points;
  };
  const std::vector<std::vector<Part>> layouts = {
      {{kFlushed, 400}},
      {{kSealed, 400}},
      {{kFlushed, 0}, {kSealed, 1}, {kFlushedTwice, 399}},
      {{kSealed, 150}, {kFlushed, 150}, {kFlushedTwice, 100}},
      {{kFlushed, 1}, {kFlushed, 0}, {kSealed, 33}, {kFlushedTwice, 60},
       {kFlushed, 1}, {kSealed, 0}, {kFlushed, 90}, {kSealed, 45},
       {kFlushedTwice, 2}, {kFlushed, 67}, {kSealed, 1}, {kFlushed, 100}},
  };
  ThreadPool two(2);
  ThreadPool three(3);
  for (size_t d : {1, 2, 14, 30}) {
    for (int resolutions : {3, 4, 6}) {
      SCOPED_TRACE("d = " + std::to_string(d) +
                   ", H = " + std::to_string(resolutions));
      // Tight blobs make cells shared across parts; a uniform background
      // creates cells in every part.
      Rng rng(2000 * d + static_cast<uint64_t>(resolutions));
      Dataset data(400, d);
      for (size_t i = 0; i < data.NumPoints(); ++i) {
        const double centre = i % 3 == 0 ? 0.3 : 0.65;
        for (size_t j = 0; j < d; ++j) {
          data(i, j) = i % 4 == 3 ? rng.UniformDouble()
                                  : centre + 0.1 * rng.UniformDouble();
        }
      }
      testing::ReferenceTree reference(d, resolutions);
      for (size_t i = 0; i < data.NumPoints(); ++i) {
        reference.Insert(data.Point(i));
      }
      const std::string golden = reference.Serialize();
      Result<CountingTree> built = CountingTree::Build(data, resolutions);
      ASSERT_TRUE(built.ok());
      ASSERT_EQ(SerializeTree(*built), golden);

      for (size_t l = 0; l < layouts.size(); ++l) {
        SCOPED_TRACE("layout " + std::to_string(l));
        std::vector<CountingTree> parts;
        CellSet present;
        MergeTreeStats want;
        size_t begin = 0;
        for (const Part& part : layouts[l]) {
          const Dataset slice = Slice(data, begin, begin + part.points);
          begin += part.points;
          CellSet cells;
          for (size_t i = 0; i < slice.NumPoints(); ++i) {
            AddCells(slice.Point(i), resolutions, &cells);
          }
          want += ExpectedFold(present, cells, resolutions);
          present.insert(cells.begin(), cells.end());
          Result<CountingTree> sealed = CountingTree::Build(slice, resolutions);
          ASSERT_TRUE(sealed.ok());
          if (part.kind == kSealed) {
            parts.push_back(std::move(*sealed));
            continue;
          }
          Result<CountingTree> flushed = CountingTree::Empty(d, resolutions);
          ASSERT_TRUE(flushed.ok());
          for (size_t i = 0; i < slice.NumPoints(); ++i) {
            ASSERT_TRUE(flushed->Insert(slice.Point(i)).ok());
            if (part.kind == kFlushedTwice && i == slice.NumPoints() / 2) {
              flushed->Flush();
            }
          }
          flushed->Flush();
          EXPECT_FALSE(flushed->sealed());
          parts.push_back(std::move(*flushed));
        }
        ASSERT_EQ(begin, data.NumPoints());

        std::vector<const CountingTree*> sources;
        for (const CountingTree& part : parts) sources.push_back(&part);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two,
                                 &three}) {
          SCOPED_TRACE(pool == nullptr ? 1 : pool->num_threads());
          MergeTreeStats got;
          Result<CountingTree> folded = CountingTree::Fold(sources, pool, &got);
          ASSERT_TRUE(folded.ok()) << folded.status().ToString();
          EXPECT_TRUE(folded->ValidateInvariants().ok());
          EXPECT_EQ(folded->total_points(), data.NumPoints());
          EXPECT_EQ(SerializeTree(*folded), golden);
          EXPECT_EQ(got.cells_merged, want.cells_merged);
          EXPECT_EQ(got.cells_created, want.cells_created);
          EXPECT_EQ(got.nodes_created, want.nodes_created);
        }
      }
    }
  }
}

TEST(TreeFoldTest, FoldRejectsBadPartsUntouched) {
  Dataset data = testing::UniformDataset(50, 3, 8);
  Result<CountingTree> a = CountingTree::Build(data, 4);
  Result<CountingTree> other_h = CountingTree::Build(data, 5);
  Result<CountingTree> running = CountingTree::Empty(3, 4);
  ASSERT_TRUE(a.ok() && other_h.ok() && running.ok());
  ASSERT_TRUE(running->Insert(data.Point(0)).ok());
  const std::string before = SerializeTree(*a);
  EXPECT_EQ(CountingTree::Fold({}, nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  const CountingTree* mismatched[] = {&*a, &*other_h};
  EXPECT_EQ(CountingTree::Fold(mismatched, nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  // A part with a pending run must be flushed first.
  const CountingTree* unflushed[] = {&*a, &*running};
  EXPECT_EQ(CountingTree::Fold(unflushed, nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  running->Flush();
  MergeTreeStats stats;
  Result<CountingTree> folded =
      CountingTree::Fold(unflushed, nullptr, &stats);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->total_points(), 51u);
  EXPECT_EQ(SerializeTree(*a), before);
  EXPECT_FALSE(running->sealed());
  EXPECT_EQ(running->total_points(), 1u);
}

TEST(TreeFoldTest, FlushThenSealOfASealedTreeGivesTheSameBytes) {
  // Flush() leaves a sealed tree its ranked key order and frees the
  // arenas; Seal() lays that out again. However the tree was assembled
  // (built, folded, parsed), the round trip must not move a byte.
  for (size_t d : {1, 2, 14, 30}) {
    SCOPED_TRACE("d = " + std::to_string(d));
    const Dataset data = testing::SmallClustered(600, d, 2, 31 + d).data;
    Result<CountingTree> built = CountingTree::Build(data, 5);
    ASSERT_TRUE(built.ok());
    const std::string bytes = SerializeTree(*built);
    Result<CountingTree> first = CountingTree::Build(Slice(data, 0, 250), 5);
    Result<CountingTree> second =
        CountingTree::Build(Slice(data, 250, data.NumPoints()), 5);
    ASSERT_TRUE(first.ok() && second.ok());
    const CountingTree* parts[] = {&*first, &*second};
    Result<CountingTree> folded = CountingTree::Fold(parts, nullptr, nullptr);
    Result<CountingTree> parsed = ParseTree(bytes, "built");
    ASSERT_TRUE(folded.ok() && parsed.ok());

    std::vector<CountingTree> trees;
    trees.push_back(std::move(*built));
    trees.push_back(std::move(*folded));
    trees.push_back(std::move(*parsed));
    for (size_t t = 0; t < trees.size(); ++t) {
      SCOPED_TRACE("tree " + std::to_string(t) + " (built, folded, parsed)");
      CountingTree& tree = trees[t];
      ASSERT_EQ(SerializeTree(tree), bytes);
      tree.Flush();
      EXPECT_FALSE(tree.sealed());
      EXPECT_EQ(tree.total_points(), data.NumPoints());
      tree.Seal();
      EXPECT_TRUE(tree.ValidateInvariants().ok());
      EXPECT_EQ(SerializeTree(tree), bytes);
    }
  }
}

TEST(TreeMergeTest, EquivalenceDetectsDifferences) {
  Dataset d1 = testing::UniformDataset(300, 3, 5);
  Dataset d2 = testing::UniformDataset(300, 3, 6);
  Result<CountingTree> a = CountingTree::Build(d1, 4);
  Result<CountingTree> b = CountingTree::Build(d2, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  // Trees are compared by their bytes, which the canonical layout makes
  // a function of the counts: equal trees give equal bytes, and a tree
  // over other points gives other bytes.
  Result<CountingTree> a_again = CountingTree::Build(d1, 4);
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(SerializeTree(*a), SerializeTree(*a_again));
  EXPECT_NE(SerializeTree(*a), SerializeTree(*b));
}

}  // namespace
}  // namespace mrcc

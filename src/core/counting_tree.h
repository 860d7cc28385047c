// The Counting-tree (paper §III-A): a sparse, quadtree-like multi-
// resolution hyper-grid over [0,1)^d.
//
// Level h (1 <= h <= H-1) covers the unit cube with cells of side 1/2^h.
// Only non-empty cells are materialized, so each level holds at most eta
// cells regardless of the 2^(d h) nominal grid size. Each cell stores
//   - loc:   its position inside the parent cell, one bit per axis
//            (0 = lower half, 1 = upper half),
//   - n:     the number of points in its space,
//   - P[j]:  the half-space count — points in the lower half of the cell
//            along axis e_j,
//   - child: the node refining this cell at level h+1 (if any).
// The paper's cell also carries the β-search's usedCell flag; here the
// tree holds counts only, and the search keeps its own per-level flags
// (beta_cluster_finder.h), so a search never writes the tree.
//
// Storage is structure-of-arrays, level-contiguous: every level owns one
// arena of packed parallel arrays (loc[], n[], child[], the owning node
// per cell, and d half-space counts per cell), so the hot loops — the
// Laplacian convolution, the argmax sweep, serialization — stream each
// attribute sequentially instead of chasing per-node pointers. A node
// (the paper's linked list of sibling cells sharing one parent cell) is
// reduced to a slice [first, first + count) of its level's arena plus
// the parent cell's absolute coordinates; a level's nodes, in pool
// order, tile its arena. Lookups by coordinates go through the search's
// sorted level keys (level_keys.h); FindCell's root descent scans each
// node's contiguous loc slice.
//
// Construction counts points by sorting them; no point walks the tree.
// Every build is a run of digit-key records: a point's key is the binary
// digits of its cell at levels 1..H-1 (level 1 most significant)
// followed by its H-th digit (the half-space bits of its deepest cell),
// ceil(d * H / 64) words, and a word holds its stream position. Every
// tree is assembled in two halves:
//   - a key order: each level's cells sorted by (parent, loc), each with
//     its count n and a rank that orders cells as their first stream
//     positions do; only the deepest level carries half-space counts.
//     The key-order builder gets it from a run: it LSD-radix-sorts a key
//     range of records on the digits of levels 1..H-1, counts the deepest
//     level in one sequential pass and derives every upper level's n and
//     rank from its children. A sealed tree gives its own in one walk
//     (RankedKeyOrder), and a fold merges k key orders level by level in
//     one pass, adding the counts of equal cells (KeyOrderMerge in the
//     .cc; two sources for run flushes);
//   - the layout sorts those cells by (rank, level) and writes the packed
//     arenas directly in the canonical order below, summing each upper
//     cell's half-space counts from its children (P[j] = sum of the n of
//     the children whose loc bit j is 0). It writes every tree's arenas
//     except a parsed one's (ParseTree reads them from disk);
//     DropDeepestLevel lays out the tree's own key order without its
//     deepest level.
// Insert() appends records to a pending run; Flush() — or Insert() when
// the run would pass kMaxRunBytes — builds the run's key order and merges
// it into the tree's pending key order (a sealed tree's cells become that
// key order first), and Seal() flushes and lays the pending key order out
// once. Fold() is the one way to fold trees: the trees of consecutive
// stream segments — flushed, as a sliding window keeps its generations
// and the shard merger its loaded artifacts, or sealed — in one k-way
// merge read from where their key orders lie, and one layout whose
// deepest half-space counts are summed from the sources straight into
// the arena.
// BuildPartitioned() is the parallel form: T workers scan T stream slices
// into one record buffer, one MSD pass on the top bits of the level-1
// digit splits the records into T contiguous key ranges (a level-1 cell
// never straddles two), the workers run the key-order builder on one
// range each, and the layout runs once over the concatenated ranges.
// Records carry their stream positions, so the layout recovers the serial
// creation order and the bytes equal a serial build's.
//
// The canonical (packed) order: nodes in creation order — by the first
// stream index of their parent cell, then by level — and cells in
// creation order within their node, i.e. by their first stream index.
// It is the order a point-at-a-time scan creates them in, so any split
// of a stream into runs, sealed trees and folds gives the same bytes. So
// every node comes after its parent cell's node: ValidateInvariants
// checks it, and a sealed tree's ranks stand in for first positions
// only because of it.
// That order is load-bearing: the β-search argmax breaks ties by the
// lowest cell index in exactly this enumeration, so it is what keeps
// results bit-identical across serial, sharded and reloaded builds.
// All public read access requires a sealed tree; the only sanctioned
// way to read cells is the LevelView / CellRef API below.
//
// Cost: O(eta * d * H) key work plus O(eta * ceil(d * (H - 1) / b))
// radix-sort work (b = 11-bit digits) and O(cells * d) for the levels;
// a fold is O(source cells) for the merge (plus d per deepest source
// cell) and O(cells * d) for the layout; Fold cuts both across its
// pool's threads. Memory O(H * eta * d) for the tree or its pending key
// order, plus a pending run of at most kMaxRunBytes that Flush() sorts
// through a second buffer of the same size (BuildPartitioned: at most
// kMaxRunBytes of records per worker, and the same second buffer).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace mrcc {

class ThreadPool;

/// Work counters of one tree fold (CountingTree::Fold, MergeTree), as if
/// the parts were counted one after another into an empty tree:
/// `cells_merged` — part cells an earlier part already holds, whose
/// counts were added (the merge "conflicts" a sharded build pays for);
/// `cells_created` — part cells new to the fold (all of the first
/// part's); `nodes_created` — the created cells above the deepest level
/// (each opens a child node). MergeTree counts against its destination,
/// whose own cells are not created. Sums of folds add with +=.
struct MergeTreeStats {
  uint64_t cells_merged = 0;
  uint64_t cells_created = 0;
  uint64_t nodes_created = 0;

  MergeTreeStats& operator+=(const MergeTreeStats& o) {
    cells_merged += o.cells_merged;
    cells_created += o.cells_created;
    nodes_created += o.nodes_created;
    return *this;
  }
};

/// Sparse multi-resolution grid of point counts (see file comment).
class CountingTree {
 public:
  /// Deepest representable level. Beyond ~52 subdivisions cell boundaries
  /// fall below the double mantissa, so deeper levels carry no information;
  /// 62 keeps integer cell coordinates inside a uint64_t.
  static constexpr int kMaxResolutions = 62;

  /// Maximum dataset dimensionality (loc packs one bit per axis).
  static constexpr size_t kMaxDims = 62;

  /// Most bytes a pending run of Insert()ed points holds: the Insert
  /// that would pass it first merges the run's key order into the
  /// pending one.
  /// Each point takes 8 * (ceil(d * H / 64) + 1) bytes, so 2^21 points
  /// at d * H <= 64. BuildPartitioned holds at most this much per worker.
  static constexpr size_t kMaxRunBytes = size_t{32} << 20;

  /// A located cell: its level and its index in that level's arena.
  /// Indices are stable between structural mutations (the layout only
  /// changes when the tree itself does).
  struct CellRef {
    int level = 0;
    uint32_t index = 0;
  };

  /// Read-only view over one level's packed arenas — the sanctioned way
  /// to enumerate cells. All spans are parallel: entry i of each span
  /// describes the same cell, and i is the canonical enumeration index
  /// (nodes in creation order, cells in creation order within a node)
  /// that the β-search tie-break and the serialized layout rely on.
  class LevelView {
   public:
    int level() const { return level_; }
    size_t num_cells() const;
    size_t num_dims() const;

    /// Position bits of each cell inside its parent cell.
    std::span<const uint64_t> locs() const;

    /// Point count n of each cell.
    std::span<const uint32_t> counts() const;

    /// Index of the node refining each cell at level + 1, or -1.
    std::span<const int32_t> children() const;

    /// Half-space counts, cell-major: d consecutive entries per cell,
    /// half()[i * d + j] = points of cell i in its lower half along e_j.
    /// Cell-major (not axis-major) because every consumer — the point
    /// insertion, the binomial test, the merge, serialization — touches
    /// all d axes of one cell at a time.
    std::span<const uint32_t> half() const;

    /// The d half-space counts of cell i.
    std::span<const uint32_t> half_of(uint32_t i) const;

    /// Absolute integer coordinates (in [0, 2^level)) of cell i, written
    /// to out[0..d). The allocation-free form for hot loops.
    void CoordsInto(uint32_t i, uint64_t* out) const;

    std::vector<uint64_t> Coords(uint32_t i) const;

    /// True when coords(b) = coords(a) + offset (d values, each added
    /// mod 2^64). Exact; cells of one node compare by loc bits alone, so
    /// only cells of different nodes read their nodes' base coordinates.
    bool AtOffset(uint32_t a, uint32_t b, const uint64_t* offset) const;

    CellRef ref(uint32_t i) const { return CellRef{level_, i}; }

   private:
    friend class CountingTree;
    LevelView(const CountingTree* tree, int level)
        : tree_(tree), level_(level) {}

    const CountingTree* tree_;
    int level_;
  };

  /// Builds the tree over `data` with `num_resolutions` = H resolutions
  /// (levels 1..H-1 are materialized; the paper requires H >= 3).
  /// `data` must lie in [0,1)^d with d <= kMaxDims.
  [[nodiscard]] static Result<CountingTree> Build(const Dataset& data,
                                                  int num_resolutions);

  /// One worker's share of a BuildPartitioned scan: the digit-key
  /// records of one contiguous slice of the stream, written into the
  /// build's record buffer at the slice's own offset.
  class SliceRun {
   public:
    /// Counts the slice's next point. Validates it like Insert() (same
    /// errors) and writes its digit key and stream position.
    [[nodiscard]] Status Insert(std::span<const double> point);

   private:
    friend class CountingTree;
    SliceRun(size_t num_dims, int num_resolutions, uint64_t* records,
             size_t capacity, uint64_t first_position)
        : num_dims_(num_dims),
          num_resolutions_(num_resolutions),
          records_(records),
          capacity_(capacity),
          position_(first_position) {}

    size_t num_dims_;
    int num_resolutions_;
    uint64_t* records_;
    size_t capacity_;  // Points the slice holds at most.
    size_t size_ = 0;  // Points counted so far.
    uint64_t position_;
  };

  /// Scans stream points [begin, end) in order into `run` (one
  /// SliceRun::Insert per counted point; points it skips are simply not
  /// inserted). `worker` numbers the slice, 0..T-1 in stream order; each
  /// runs on its own pool thread.
  using SliceScan =
      std::function<Status(int worker, size_t begin, size_t end,
                           SliceRun& run)>;

  /// Builds the sealed tree of a `num_points`-point stream on `pool`'s
  /// threads, partitioned by key space (see the file comment): `scan`
  /// runs once per worker on that worker's contiguous slice, and the
  /// result is byte-identical to Insert()ing the scanned points in
  /// stream order and sealing, at every thread count. Streams longer
  /// than kMaxRunBytes of records per worker are built in rounds of
  /// that size, each round's key order merged into the previous rounds'
  /// and the whole laid out once. The first failing slice's status (in
  /// slice order) fails the build.
  /// Same d and H checks as Empty().
  [[nodiscard]] static Result<CountingTree> BuildPartitioned(
      size_t num_dims, int num_resolutions, size_t num_points,
      ThreadPool& pool, const SliceScan& scan);

  /// A validated empty, sealed tree with d = `num_dims` and H =
  /// `num_resolutions` (checked like Build(); H beyond kMaxResolutions + 1
  /// is clamped) — the start of every incremental construction: feed it
  /// through Insert() and Seal().
  [[nodiscard]] static Result<CountingTree> Empty(size_t num_dims,
                                                  int num_resolutions);

  /// Counts one more point: validates it and appends its digit key to
  /// the pending run (see the file comment). The tree is unsealed until
  /// the next Seal(); call it before any read access (Level, FindCell,
  /// the β-search). A sealed tree that received inserts is cell-for-cell
  /// identical to one built from the concatenation of the original
  /// stream and the inserted points — the canonical order depends only
  /// on cell creation order, which appending preserves. Points must lie
  /// in [0,1)^d.
  [[nodiscard]] Status Insert(std::span<const double> point);

  /// Merges the pending run's key order into the pending one and lays
  /// that out in canonical (readable) order. No-op on a sealed tree.
  void Seal();

  /// Leaves the tree a key order, never laid out: a sealed tree's cells
  /// become its ranked key order (see RankedKeyOrder) and its arenas are
  /// freed, then the pending run's key order (its cells ranked by their
  /// first stream positions) is merged in and the run freed. The tree is
  /// unsealed afterwards, ready to be a Fold() part; Seal() lays it out
  /// again, byte-identical to the tree it was.
  void Flush();

  /// Folds `parts`, the trees of consecutive segments of one stream
  /// given oldest first, into the sealed tree built over their
  /// concatenation: byte-identical to Insert()ing every part's points in
  /// order into an empty tree and sealing once. Each part is flushed
  /// (see Flush()) or sealed; a flushed part's key order is read where
  /// it lies, a sealed part's is ranked from its arenas (RankedKeyOrder,
  /// a copy as large as its cells; flush a part first where memory
  /// counts), and no part is modified. One k-way merge keyed on (merged
  /// parent, loc) builds the result's key order: part s's ranks are
  /// offset by the summed rank bounds of the parts before it, and a cell
  /// several parts hold keeps the earliest one's rank. The merge and the
  /// layout run on `pool`'s threads (inline when null), the layout
  /// summing the deepest level's half counts from the parts straight
  /// into its arena. `*stats` (when non-null) receives the fold's
  /// counters (see MergeTreeStats). Errors, before the merge:
  /// InvalidArgument for no parts, a dimensionality or resolution
  /// mismatch, a part with a pending run, or summed rank bounds past
  /// 2^32 - 1. No part is changed either way.
  [[nodiscard]] static Result<CountingTree> Fold(
      std::span<const CountingTree* const> parts, ThreadPool* pool,
      MergeTreeStats* stats);

  /// False while Insert() / Flush() changes await a Seal().
  bool sealed() const { return pending_ == nullptr && run_.empty(); }

  /// Number of resolutions H (the root counts as resolution 0).
  int num_resolutions() const { return num_resolutions_; }

  /// Dataset dimensionality d.
  size_t num_dims() const { return num_dims_; }

  /// Total points counted (eta), the pending run included.
  uint64_t total_points() const;

  /// Number of nodes in the pool (the root included).
  size_t num_nodes() const { return nodes_.size(); }

  /// View over the cells of level h (1 <= h < num_resolutions).
  LevelView Level(int h) const;

  /// Number of materialized (non-empty) cells at level h.
  size_t NumCellsAtLevel(int h) const;

  // Single-cell accessors via CellRef (the view's spans are the bulk
  // path; these are for located cells).
  uint32_t Count(CellRef ref) const;
  uint64_t Loc(CellRef ref) const;
  int32_t Child(CellRef ref) const;

  /// Half-space count P[axis] of the referenced cell.
  uint32_t HalfCount(CellRef ref, size_t axis) const;

  /// Absolute integer coordinates (in [0, 2^level)) of the cell.
  std::vector<uint64_t> CellCoords(CellRef ref) const;

  /// Locates the cell at `coords` on `level`. Returns true and fills `ref`
  /// when that region holds points. Walks down from the root, scanning
  /// one node's loc slice per level. The reference lookup of tests and
  /// TreesEquivalent; the engine looks cells up through LevelKeys.
  bool FindCell(int level, const std::vector<uint64_t>& coords,
                CellRef* ref) const;

  /// The face neighbor of the cell at `coords` (level `level`) along
  /// `axis`, in direction `dir` (-1 = lower, +1 = upper). Returns false
  /// when outside the cube or not materialized. Covers both the paper's
  /// internal neighbor (same parent) and external neighbor (adjacent
  /// parent) transparently.
  bool FaceNeighbor(int level, const std::vector<uint64_t>& coords,
                    size_t axis, int dir, CellRef* ref) const;

  /// Point count of the face neighbor, 0 when absent.
  uint32_t FaceNeighborCount(int level, const std::vector<uint64_t>& coords,
                             size_t axis, int dir) const;

  /// Removes the deepest materialized level (H := H - 1) and frees its
  /// nodes — the graceful-degradation lever under memory pressure: the
  /// paper's H trades resolution for resources, and counts at the
  /// remaining levels are untouched. The tree frees its deepest level,
  /// turns the rest into its ranked key order (see Flush()) and is laid
  /// out again, so it is byte-identical to a tree built with the smaller H
  /// from the start. Freeing the deepest level (the one with the most
  /// cells) first keeps the drop's transient heap near the tree's own.
  /// Returns InvalidArgument, leaving the tree as it is, when H is already
  /// the minimum 3 or the tree is unsealed.
  [[nodiscard]] Status DropDeepestLevel();

  /// Full structural walk of every invariant the core relies on: packed
  /// arena consistency, d-bit loc codes, half-space counts P[j] <= n,
  /// a child node under every cell above the deepest level, child
  /// levels/base coordinates, child count sums equal to the parent cell
  /// count, single-parent linkage, creation order (every child node
  /// after its parent cell's node), each level's nodes tiling its arena
  /// in pool order and the total-point count. O(cells * d) time and no
  /// allocation per node or cell when the tree is valid. Returns OK or
  /// Internal naming the first violated invariant. Every layout (Seal,
  /// Build, Fold, MergeTree) runs it in debug builds; ParseTree
  /// (LoadTree, every shard-artifact load) runs it unconditionally to
  /// reject corrupt bytes.
  [[nodiscard]] Status ValidateInvariants() const;

  /// Approximate heap footprint of the tree in bytes, the pending run
  /// (by capacity, like the arenas) and the pending key order included.
  /// The node pool counts by size, not capacity, so a sealed tree
  /// reports the same footprint however it was assembled (one scan, a
  /// sharded fold, a window fold, loaded shard artifacts) — memory-
  /// budget decisions never depend on the engine or the thread count.
  size_t MemoryBytes() const;

  /// Test-only mutable access to the raw arenas, for corrupting a tree
  /// in invariant/robustness tests. Not part of the supported API.
  struct TestPeer;

 private:
  /// std::allocator whose argument-less construct() default-initializes:
  /// resize() leaves trivial elements unwritten, so an array sized on one
  /// thread is first touched by the threads that fill it.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  /// A packed array: resize() does not zero new elements.
  template <typename T>
  using Packed = std::vector<T, DefaultInitAllocator<T>>;

  /// One level's packed cell storage. Parallel arrays; `half` holds d
  /// entries per cell (cell-major); `owner` is the node owning each cell
  /// (what turns an arena index back into coordinates).
  struct Arena {
    Packed<uint64_t> loc;
    Packed<uint32_t> n;
    Packed<int32_t> child;
    Packed<uint32_t> owner;
    Packed<uint32_t> half;

    size_t size() const { return loc.size(); }
  };

  /// A node: the sibling cells sharing one parent cell, the arena slice
  /// [first, first + count) of its level. Its base coordinates live in
  /// the tree's flat base_ array.
  struct Node {
    int level = 1;

    /// First cell of this node's arena slice.
    uint32_t first = 0;

    /// Number of cells in this node.
    uint32_t count = 0;
  };

  /// Every level's cells in key order: level h's cells are [0, cells) of
  /// its arrays, sorted by (parent, loc); parent indexes level h - 1's
  /// cells. Only the deepest level holds half counts (d a cell): an
  /// upper cell's are the sums over its children, which LayOut adds up.
  /// `first` ranks a cell: its lowest stream position in a run's key
  /// order, a rank below position_bound that orders cells as their first
  /// positions do wherever LayOut compares them in any other (see
  /// RankedKeyOrder).
  struct KeyOrder {
    struct Level {
      size_t cells = 0;
      std::unique_ptr<uint64_t[]> loc;
      std::unique_ptr<uint32_t[]> n;
      std::unique_ptr<uint32_t[]> first;
      std::unique_ptr<uint32_t[]> parent;
      std::unique_ptr<uint32_t[]> half;  // Null above the deepest level.

      /// A level of `cells` cells, unwritten, with `d` half counts a
      /// cell (no half array when d is 0).
      static Level Allocate(size_t cells, size_t d);
    };
    std::vector<Level> levels;  // levels[h], 1 <= h <= H - 1.
    uint64_t points = 0;
    uint64_t position_bound = 0;  // Every rank is below it.

    /// Heap bytes of the levels' arrays.
    size_t MemoryBytes(size_t d) const;
  };

  /// A merge's deepest-level half counts, left in its sources: merged
  /// cell c's are the sum of the d-count rows at rows[at[c]], ...,
  /// rows[at[c + 1] - 1] (at least one).
  struct HalfRows {
    std::vector<uint32_t> at;
    std::vector<const uint32_t*> rows;
  };

  /// The k-way key-order merge behind Fold and MergePending (defined in
  /// counting_tree.cc).
  class KeyOrderMerge;

  CountingTree(size_t num_dims, int num_resolutions)
      : num_dims_(num_dims), num_resolutions_(num_resolutions) {}

  // Persistence needs raw access to the arenas (tree_io.h).
  friend std::string SerializeTree(const CountingTree& tree,
                                   size_t trailer_bytes);
  friend Result<CountingTree> ParseTree(std::string_view bytes,
                                        const std::string& path);

  /// Words of one digit key: ceil(d * H / 64).
  size_t KeyWords() const;

  /// The key-order builder's input: `count` records of one key range at
  /// `records`, and a buffer as large for their sort.
  struct KeyRange {
    uint64_t* records;
    uint64_t* scratch;
    size_t count;
  };

  /// The key-order builder: sorts each range and counts its cells, on
  /// `pool`'s threads (one range per task; inline when null). Ranges
  /// must be disjoint and ascending in key space, each in stream order,
  /// and every record's position word below `position_bound`.
  static KeyOrder BuildKeyOrder(size_t num_dims, int num_resolutions,
                                std::span<const KeyRange> ranges,
                                uint64_t position_bound, ThreadPool* pool);

  /// The layout: the sealed tree whose cells `key_order` lists, with
  /// nodes and cells in creation order (`pool` may be null). Sums every
  /// upper cell's half counts from its children, and the deepest
  /// level's from `deepest_half` when that level holds none. Frees the
  /// key order.
  static CountingTree LayOut(size_t num_dims, int num_resolutions,
                             KeyOrder& key_order, ThreadPool* pool,
                             const HalfRows* deepest_half = nullptr);

  /// This sealed tree's key order, with rank bound max(nodes, deepest
  /// cells): an upper cell is ranked by its child node's pool index, a
  /// deepest cell by its arena index. Pool order is creation order (a
  /// tree invariant) and arena order is creation order within a node, so
  /// the ranks order cells as their first stream positions do wherever
  /// the layout compares them.
  KeyOrder RankedKeyOrder() const;

  /// The pending key order: a sealed tree first turns its cells into one
  /// (and frees its arenas).
  KeyOrder& Pending();

  /// Merges `source`, the key order of the points that follow this
  /// tree's in the stream, into the pending one: the two-source call of
  /// the k-way merge, ranking its cells past every pending rank and
  /// freeing each level of both once merged. Returns the fold's work
  /// counters.
  MergeTreeStats MergePending(KeyOrder& source);

  /// Flushes the run and lays the pending key order out on `pool`'s
  /// threads (inline when null).
  void LayOutPending(ThreadPool* pool);

  /// Arena index of the cell with position `loc` in `node`, or -1: a
  /// vector compare-scan of the node's loc slice.
  int64_t FindInNode(const Node& node, uint64_t loc) const;

  /// Base coordinates of node `node`: d words.
  const uint64_t* BaseOf(uint32_t node) const {
    return base_.data() + size_t{node} * num_dims_;
  }

  size_t num_dims_;
  int num_resolutions_;
  uint64_t total_points_ = 0;  // The pending run's points excluded.
  std::vector<Node> nodes_;    // nodes_[0] is the root.
  // Absolute integer coordinates of each node's parent cell at level
  // `level - 1`, d words per node (all zeros for the root). A cell of
  // node m has coordinates base_[m * d + j] * 2 + bit_j(loc).
  Packed<uint64_t> base_;
  std::vector<Arena> arenas_;  // arenas_[h], h >= 1.
  // Pending run: KeyWords() + 1 words per Insert()ed point — its digit
  // key (little-endian words), then a word Flush sets to its index in
  // the run.
  std::vector<uint64_t> run_;
  // Non-null while the tree's cells await a layout: they live here, and
  // nodes_, base_ and arenas_ are empty.
  std::unique_ptr<KeyOrder> pending_;
};

/// Mutation hooks for tests that corrupt a tree on purpose (invariant
/// detection, robustness). Kept out of the main API so production code
/// cannot reach mutable storage; lint bans raw-field access elsewhere.
struct CountingTree::TestPeer {
  static uint32_t& Count(CountingTree& tree, CellRef ref) {
    return tree.arenas_[static_cast<size_t>(ref.level)].n[ref.index];
  }
  static uint64_t& Loc(CountingTree& tree, CellRef ref) {
    return tree.arenas_[static_cast<size_t>(ref.level)].loc[ref.index];
  }
  static int32_t& Child(CountingTree& tree, CellRef ref) {
    return tree.arenas_[static_cast<size_t>(ref.level)].child[ref.index];
  }
  static uint32_t& Owner(CountingTree& tree, CellRef ref) {
    return tree.arenas_[static_cast<size_t>(ref.level)].owner[ref.index];
  }
  static uint32_t& Half(CountingTree& tree, CellRef ref, size_t axis) {
    return tree.arenas_[static_cast<size_t>(ref.level)]
        .half[ref.index * tree.num_dims_ + axis];
  }
};

}  // namespace mrcc

// Counting-tree persistence and merging.
//
// The Counting-tree is a pure count sketch of the data: cell counts are
// additive, so trees built over disjoint chunks of a dataset can be merged
// into the tree of the union — the natural substrate for distributing the
// paper's single data scan over shards — and a built tree can be saved
// and reloaded so repeated analyses (different alpha, soft membership,
// intrinsic dimension) skip the scan entirely.
//
// Binary layout (little-endian host order):
//   magic "MRTR" | u32 version | u32 d | u32 H | u64 total_points
//   | u64 node_count | per node: i32 level, d*u64 base_coords,
//     u64 cell_count, per cell: u64 loc, u32 n, i32 child_node,
//     d*u32 half
//
// The layout predates the SoA arena storage and is kept byte-for-byte
// stable: a node's cells are written from its packed arena slice, which
// is exactly the per-node creation order the old per-node vectors held.
// The layout is canonical (counting_tree.h), so two trees hold the same
// counts exactly when SerializeTree gives them the same bytes.

#pragma once

#include <string>
#include <string_view>

#include "core/counting_tree.h"

namespace mrcc {

/// Serializes `tree` into the binary layout above (the tree holds counts
/// only; the paper's usedCell flags are the β-search's own state). The
/// returned bytes are what SaveTree writes and what a shard artifact
/// embeds ahead of its checksum trailer (src/dist/shard_io.h). The
/// stream's exact size is computed first and the bytes copied into one
/// buffer of that size; `trailer_bytes` more are reserved behind it, so a
/// caller can append that many without the multi-megabyte stream being
/// copied again.
std::string SerializeTree(const CountingTree& tree, size_t trailer_bytes = 0);

/// Parses a tree from bytes produced by SerializeTree. `path` appears in
/// error messages only. Every failure is an IOError naming the section
/// that failed and the byte offset where it did, in the fs.h truncation
/// style: "truncated tree file <path>: <section> ends at byte <end>
/// (needed <n> bytes at offset <start>)" for short reads, and
/// "bad <section> in <path> at byte <start>: <why>" for parseable bytes
/// with impossible values. The tree is parsed straight out of `bytes`
/// (no copy of the stream is made) and owns all of its storage: the view
/// is not retained past the call, so the caller may free the buffer as
/// soon as ParseTree returns.
[[nodiscard]] Result<CountingTree> ParseTree(std::string_view bytes,
                                             const std::string& path);

/// Writes `tree` to `path` atomically (temp file + fsync + rename; see
/// WriteFileAtomic) — a crash mid-save leaves the previous file intact,
/// never a torn tree.
[[nodiscard]] Status SaveTree(const CountingTree& tree,
                              const std::string& path);

/// Reads a tree written by SaveTree.
[[nodiscard]] Result<CountingTree> LoadTree(const std::string& path);

/// Merges `other` into `tree` and seals it: afterwards `tree` equals the
/// tree built over the concatenation of both datasets. It is a two-part
/// CountingTree::Fold of the sealed `tree` and `other` whose result
/// replaces `*tree`, one thread. Requires equal dimensionality and
/// resolution count, `other` sealed (a tree that took Insert()s since its
/// last Seal() is rejected with InvalidArgument) and not `tree` itself.
/// On error `tree` keeps its counts and is left sealed. `other` is left
/// untouched. Returns this merge's work counters, counted against
/// `tree`: its own cells are not created. Kept for the benchmark
/// driver's in-process repeat of a sharded build; the engine folds
/// several trees with one CountingTree::Fold over all of them (one
/// k-way merge, one layout), never pairwise.
[[nodiscard]] Result<MergeTreeStats> MergeTree(CountingTree* tree,
                                               const CountingTree& other);

}  // namespace mrcc

#include "core/counting_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/trace.h"

namespace mrcc {
namespace {

// Debug-build hook of LayOut (so of every Seal and DropDeepestLevel): a
// structural violation there is a construction or merge bug, so abort with
// the invariant's message rather than return a Status the caller would
// have to treat as an input error.
void DCheckInvariants(const CountingTree& tree) {
#ifndef NDEBUG
  const Status v = tree.ValidateInvariants();
  if (!v.ok()) {
    internal::CheckFailed(__FILE__, __LINE__, "ValidateInvariants()",
                          v.message().c_str());
  }
#else
  (void)tree;
#endif
}

// splitmix64 finalizer — strong enough to spread consecutive loc codes
// over SiblingLocSet's power-of-two table.
inline uint64_t HashLoc(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Duplicate detector for one node's sibling locs at a time, reused by a
// ValidateInvariants walk across all nodes. Each slot is stamped with the
// generation (node) that filled it, so starting the next node is one
// increment instead of a clear, and the table only ever grows: the walk
// allocates a handful of times in total, never per node or per cell.
class SiblingLocSet {
 public:
  /// Empties the set and sizes it for up to `count` inserts.
  void Reset(size_t count) {
    size_t capacity = 8;
    while (capacity < 2 * count) capacity <<= 1;
    if (capacity > slots_.size()) {
      slots_.assign(capacity, Slot{});
      generation_ = 0;
    }
    if (++generation_ == 0) {  // Wrapped: old stamps would read as live.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      generation_ = 1;
    }
    mask_ = capacity - 1;
  }

  /// Adds `loc`; false when it is already in the set.
  bool Insert(uint64_t loc) {
    for (size_t s = HashLoc(loc) & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.generation != generation_) {
        slot = Slot{loc, generation_};
        return true;
      }
      if (slot.loc == loc) return false;
    }
  }

 private:
  struct Slot {
    uint64_t loc = 0;
    uint32_t generation = 0;
  };
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t generation_ = 0;
};

// Transposes the 8 x 8 bit matrix whose row r is byte r of x (bit r * 8 +
// c moves to bit c * 8 + r) in three rounds of block swaps.
inline uint64_t Transpose8x8(uint64_t x) {
  x = (x & 0xAA55AA55AA55AA55ull) | ((x & 0x00AA00AA00AA00AAull) << 7) |
      ((x >> 7) & 0x00AA00AA00AA00AAull);
  x = (x & 0xCCCC3333CCCC3333ull) | ((x & 0x0000CCCC0000CCCCull) << 14) |
      ((x >> 14) & 0x0000CCCC0000CCCCull);
  x = (x & 0xF0F0F0F00F0F0F0Full) | ((x & 0x00000000F0F0F0F0ull) << 28) |
      ((x >> 28) & 0x00000000F0F0F0F0ull);
  return x;
}

// Bits per digit of the run sort: 2048 buckets, whose counters and
// write cursors stay in L1/L2 while a pass streams the records.
constexpr int kRadixBits = 11;

// Most top key bits the partition pass histograms: 65536 buckets, fine
// enough to balance T ranges on clustered data and small enough for
// every worker to hold its own histogram.
constexpr size_t kPartitionBits = 16;

// Bits [lo, lo + width) of the little-endian integer in key[0..words),
// width <= 64; bits past the last word read as 0.
inline uint64_t KeyBits(const uint64_t* key, size_t words, size_t lo,
                        int width) {
  const size_t w = lo >> 6;
  const unsigned shift = lo & 63;
  uint64_t v = key[w] >> shift;
  if (shift + static_cast<unsigned>(width) > 64 && w + 1 < words) {
    v |= key[w + 1] << (64 - shift);
  }
  return width >= 64 ? v : v & ((uint64_t{1} << width) - 1);
}

// Words of one digit key: ceil(d * H / 64).
size_t KeyWordsFor(size_t num_dims, int num_resolutions) {
  return (num_dims * static_cast<size_t>(num_resolutions) + 63) / 64;
}

// The point checks of Insert and SliceRun::Insert.
Status CheckPoint(std::span<const double> point, size_t num_dims) {
  if (point.size() != num_dims) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  bool in_cube = true;
  for (double v : point) in_cube &= (v >= 0.0) & (v < 1.0);
  if (!in_cube) {
    return Status::InvalidArgument(
        "points must be normalized to [0,1)^d before insertion");
  }
  return Status::OK();
}

// Writes the digit key of `point` (see the file comment) into the zeroed
// words key[0, KeyWordsFor(d, H)).
void DigitKey(size_t d, int num_resolutions, std::span<const double> point,
              uint64_t* key) {
  // With g_j = floor(x_j * 2^H), the level-h digit of axis j is bit H - h
  // of g_j, stored at key bit d * (H - h) + j: level 1 on top, the H-th
  // digit (half-space bits of the deepest cell) at the bottom.
  // Multiplying a finite x in [0,1) by 2^H is an exact exponent shift, so
  // g_j holds the coordinate's first H binary digits exactly (and fits an
  // int64_t, H <= 63).
  const auto resolutions = static_cast<size_t>(num_resolutions);
  const double scale = std::ldexp(1.0, num_resolutions);
  uint64_t grid[CountingTree::kMaxDims + 7] = {};
  for (size_t j = 0; j < d; ++j) {
    grid[j] = static_cast<uint64_t>(static_cast<int64_t>(point[j] * scale));
  }
  // Transposing the d x H bit matrix 8 x 8 bits at a time: byte k of
  // `block` holds bits [8c, 8c + 8) of g_{8m+k}; after Transpose8x8 byte
  // t holds bit 8c + t of g_{8m}..g_{8m+7}, the level digit's 8 bits for
  // axes 8m..8m+7. Padding axes and bits past H are zero.
  for (size_t c = 0; 8 * c < resolutions; ++c) {
    uint64_t rows[(CountingTree::kMaxDims + 7) / 8] = {};
    for (size_t m = 0; 8 * m < d; ++m) {
      uint64_t block = 0;
      for (size_t k = 0; k < 8; ++k) {
        block |= ((grid[8 * m + k] >> (8 * c)) & 0xff) << (8 * k);
      }
      rows[m] = Transpose8x8(block);
    }
    for (size_t t = 8 * c; t < std::min(resolutions, 8 * c + 8); ++t) {
      uint64_t digit = 0;
      for (size_t m = 0; 8 * m < d; ++m) {
        digit |= ((rows[m] >> (8 * (t - 8 * c))) & 0xff) << (8 * m);
      }
      const size_t bit = d * t;
      const unsigned shift = bit & 63;
      key[bit >> 6] |= digit << shift;
      if (shift + d > 64) key[(bit >> 6) + 1] |= digit >> (64 - shift);
    }
  }
}

// Stable LSD radix sort of `count` records (`stride` words each) at
// `data` by bits [lo, hi) of the little-endian integer in each record's
// first `key_words` words, kRadixBits per pass, moving the records back
// and forth between `data` and `scratch` (as large). Returns the buffer
// that holds the sorted records. All digit histograms come from one read
// pass; a pass whose digit is the same for every record moves nothing
// and is skipped.
uint64_t* RadixSortRecords(uint64_t* data, uint64_t* scratch, size_t count,
                           size_t stride, size_t key_words, size_t lo,
                           size_t hi) {
  if (count < 2 || hi <= lo) return data;
  constexpr size_t kBuckets = size_t{1} << kRadixBits;
  const size_t passes = (hi - lo + kRadixBits - 1) / kRadixBits;
  const auto width_of = [&](size_t pass) {
    return static_cast<int>(
        std::min<size_t>(kRadixBits, hi - lo - pass * kRadixBits));
  };
  std::vector<uint32_t> histograms(passes * kBuckets, 0);
  for (size_t r = 0; r < count; ++r) {
    const uint64_t* rec = data + r * stride;
    for (size_t p = 0; p < passes; ++p) {
      ++histograms[p * kBuckets +
                   KeyBits(rec, key_words, lo + p * kRadixBits, width_of(p))];
    }
  }
  for (size_t p = 0; p < passes; ++p) {
    uint32_t* next = histograms.data() + p * kBuckets;
    const size_t digit_lo = lo + p * kRadixBits;
    const int width = width_of(p);
    if (next[KeyBits(data, key_words, digit_lo, width)] == count) continue;
    uint32_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = next[b];
      next[b] = start;
      start += c;
    }
    // One stable counting-sort pass: next[digit] is the bucket's next slot.
    for (size_t r = 0; r < count; ++r) {
      const uint64_t* rec = data + r * stride;
      const size_t slot = next[KeyBits(rec, key_words, digit_lo, width)]++;
      std::copy(rec, rec + stride, scratch + slot * stride);
    }
    std::swap(data, scratch);
  }
  return data;
}

// Runs fn(begin, end) over contiguous slices of [0, n): one per pool
// thread, or one slice inline when `pool` is null.
void ForSlices(ThreadPool* pool, size_t n,
               const std::function<void(size_t, size_t)>& fn) {
  if (pool == nullptr) {
    if (n > 0) fn(0, n);
    return;
  }
  pool->ParallelFor(n,
                    [&fn](int, size_t begin, size_t end) { fn(begin, end); });
}

// Runs fn(i) for every i in [0, n), in ForSlices' slices.
void ForEachIndex(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn) {
  ForSlices(pool, n, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

// How far ahead the layout's scatter loops prefetch the rows they write:
// far enough to cover a cache miss, near enough to stay in the cache.
constexpr size_t kPrefetchAhead = 16;

// Prefetches, for writing, the bytes [p, p + bytes).
template <typename T>
inline void PrefetchForWrite(T* p, size_t bytes) {
  const auto* first = reinterpret_cast<const char*>(p);
  __builtin_prefetch(first, 1);
  if (bytes > 1) __builtin_prefetch(first + bytes - 1, 1);
}

// kNibbleMask[v][x]: all ones when bit x of v is set, else zero.
constexpr auto kNibbleMask = [] {
  std::array<std::array<uint32_t, 4>, 16> mask{};
  for (size_t v = 0; v < 16; ++v) {
    for (size_t x = 0; x < 4; ++x) mask[v][x] = (v >> x) & 1 ? ~0u : 0u;
  }
  return mask;
}();

// Adds n to sums[j] for every j < d whose bit j of `bits` is set, four
// bits a step: `sums` holds d entries rounded up to a multiple of 4.
inline void AddWhereSet(uint64_t bits, uint32_t n, size_t d, uint32_t* sums) {
  for (size_t j = 0; j < d; j += 4) {
    const std::array<uint32_t, 4>& mask = kNibbleMask[(bits >> j) & 15];
    for (size_t x = 0; x < 4; ++x) sums[j + x] += n & mask[x];
  }
}

// Writes to `out` the sum of the d-count rows [first, last), at least
// one (a merged cell's rows of CountingTree::HalfRows).
inline void SumRows(const uint32_t* const* first, const uint32_t* const* last,
                    size_t d, uint32_t* out) {
  std::copy_n(*first, d, out);
  while (++first < last) {
    for (size_t x = 0; x < d; ++x) out[x] += (*first)[x];
  }
}

// The partition pass: moves the records of the stream's slices (slice w:
// filled[w] records at slices[w]) into as many contiguous key ranges as
// there are slices, written to `out` range after range, on `pool`'s
// threads, and returns each range's record count. Ranges cut the key
// space on its top bits — the top of the level-1 digit, at most
// kPartitionBits of it — where the summed histogram of those bits gives
// each range its share of the records, so a level-1 cell never straddles
// two ranges. Within a range records stay in slice order, each slice in
// stream order.
std::vector<size_t> PartitionByKey(std::span<const uint64_t* const> slices,
                                   std::span<const size_t> filled, size_t d,
                                   int resolutions, uint64_t* out,
                                   ThreadPool& pool) {
  MRCC_TRACE_SPAN_N("tree.build.partition",
                    static_cast<int64_t>(slices.size()));
  const size_t words = KeyWordsFor(d, resolutions);
  const size_t stride = words + 1;
  const size_t ranges = slices.size();
  const size_t bits = std::min(d, kPartitionBits);
  const size_t top = d * static_cast<size_t>(resolutions) - bits;
  const size_t buckets = size_t{1} << bits;
  const auto bucket_of = [&](const uint64_t* record) {
    return KeyBits(record, words, top, static_cast<int>(bits));
  };
  std::vector<std::vector<uint32_t>> histogram(slices.size());
  ForEachIndex(&pool, slices.size(), [&](size_t w) {
    histogram[w].assign(buckets, 0);
    const uint64_t* record = slices[w];
    for (size_t r = 0; r < filled[w]; ++r, record += stride) {
      ++histogram[w][bucket_of(record)];
    }
  });
  size_t total = 0;
  for (size_t n : filled) total += n;
  // Range r takes buckets until it holds its share of the records; a
  // bucket too big for one range leaves the next ones empty.
  std::vector<uint32_t> range_of(buckets);
  size_t range = 0;
  size_t seen = 0;
  for (size_t b = 0; b < buckets; ++b) {
    range_of[b] = static_cast<uint32_t>(range);
    for (const std::vector<uint32_t>& h : histogram) seen += h[b];
    while (range + 1 < ranges && seen * ranges >= (range + 1) * total) {
      ++range;
    }
  }
  // cursor[w][r]: where slice w's next record of range r goes — after the
  // earlier ranges and after range r's records of earlier slices.
  std::vector<std::vector<size_t>> cursor(slices.size(),
                                          std::vector<size_t>(ranges, 0));
  for (size_t w = 0; w < slices.size(); ++w) {
    for (size_t b = 0; b < buckets; ++b) {
      cursor[w][range_of[b]] += histogram[w][b];
    }
  }
  histogram = {};
  std::vector<size_t> sizes(ranges, 0);
  size_t at = 0;
  for (size_t r = 0; r < ranges; ++r) {
    const size_t range_begin = at;
    for (std::vector<size_t>& next : cursor) {
      const size_t records = next[r];
      next[r] = at;
      at += records;
    }
    sizes[r] = at - range_begin;
  }
  ForEachIndex(&pool, slices.size(), [&](size_t w) {
    std::vector<size_t>& next = cursor[w];
    const uint64_t* record = slices[w];
    for (size_t r = 0; r < filled[w]; ++r, record += stride) {
      const size_t slot = next[range_of[bucket_of(record)]]++;
      std::copy(record, record + stride, out + slot * stride);
    }
  });
  return sizes;
}

// split[r]: the shallowest level at which sorted record r's cell differs
// from record r - 1's (the highest differing digit bit), H when the two
// share their deepest cell; record 0 opens level 1. Record r opens a new
// cell at every level from split[r] down, so cells[h] (h < H) counts
// level h's cells exactly.
void SplitLevels(const uint64_t* records, size_t count, size_t d,
                 int resolutions, uint8_t* split, size_t* cells) {
  const size_t words = KeyWordsFor(d, resolutions);
  const size_t stride = words + 1;
  const uint64_t low_mask = (uint64_t{1} << d) - 1;  // The H-th digit.
  for (size_t r = 0; r < count; ++r) {
    int level = 1;
    if (r > 0) {
      level = resolutions;
      const uint64_t* a = records + (r - 1) * stride;
      const uint64_t* b = records + r * stride;
      for (size_t w = words; w-- > 0;) {
        const uint64_t diff = (a[w] ^ b[w]) & (w == 0 ? ~low_mask : ~0ull);
        if (diff != 0) {
          const size_t bit =
              64 * w + 63 - static_cast<size_t>(std::countl_zero(diff));
          level = resolutions - static_cast<int>(bit / d);
          break;
        }
      }
    }
    split[r] = static_cast<uint8_t>(level);
    for (int h = level; h < resolutions; ++h) ++cells[static_cast<size_t>(h)];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction.

Result<CountingTree> CountingTree::Empty(size_t num_dims,
                                         int num_resolutions) {
  if (num_resolutions < 3) {
    return Status::InvalidArgument("num_resolutions (H) must be >= 3");
  }
  if (num_dims == 0 || num_dims > kMaxDims) {
    return Status::InvalidArgument(
        "dimensionality must be in [1, " + std::to_string(kMaxDims) + "]");
  }
  // Clamp to the deepest meaningful resolution (see kMaxResolutions): the
  // paper likewise allows truncating the tree to fit resources.
  const int h_effective = std::min(num_resolutions, kMaxResolutions + 1);
  KeyOrder none;
  none.levels.resize(static_cast<size_t>(h_effective));
  return LayOut(num_dims, h_effective, none, nullptr);
}

Status CountingTree::Insert(std::span<const double> point) {
  MRCC_RETURN_IF_ERROR(CheckPoint(point, num_dims_));
  const size_t words = KeyWords();
  if ((run_.size() + words + 1) * sizeof(uint64_t) > kMaxRunBytes) {
    Flush();
  }
  const size_t at = run_.size();
  if (at + words + 1 > run_.capacity()) {
    // Grow by doubling, but never past the cap: the run's memory is
    // bounded by kMaxRunBytes, not just its contents.
    run_.reserve(std::min(std::max(2 * run_.capacity(), 64 * (words + 1)),
                          kMaxRunBytes / sizeof(uint64_t)));
  }
  run_.resize(at + words + 1, 0);  // Flush numbers the records.
  DigitKey(num_dims_, num_resolutions_, point, run_.data() + at);
  return Status::OK();
}

Status CountingTree::SliceRun::Insert(std::span<const double> point) {
  MRCC_RETURN_IF_ERROR(CheckPoint(point, num_dims_));
  // A scan inserts at most one record per point of its slice.
  MRCC_CHECK_LT(size_, capacity_);
  const size_t words = KeyWordsFor(num_dims_, num_resolutions_);
  uint64_t* record = records_ + size_ * (words + 1);
  std::fill_n(record, words, uint64_t{0});
  DigitKey(num_dims_, num_resolutions_, point, record);
  record[words] = position_ + size_;
  ++size_;
  return Status::OK();
}

void CountingTree::Seal() {
  if (!sealed()) LayOutPending(nullptr);
}

void CountingTree::LayOutPending(ThreadPool* pool) {
  Flush();
  *this = LayOut(num_dims_, num_resolutions_, *pending_, pool);
}

uint64_t CountingTree::total_points() const {
  return total_points_ + run_.size() / (KeyWords() + 1);
}

size_t CountingTree::KeyWords() const {
  return KeyWordsFor(num_dims_, num_resolutions_);
}

CountingTree::KeyOrder::Level CountingTree::KeyOrder::Level::Allocate(
    size_t cells, size_t d) {
  Level lv;
  lv.cells = cells;
  lv.loc = std::make_unique_for_overwrite<uint64_t[]>(cells);
  lv.n = std::make_unique_for_overwrite<uint32_t[]>(cells);
  lv.first = std::make_unique_for_overwrite<uint32_t[]>(cells);
  lv.parent = std::make_unique_for_overwrite<uint32_t[]>(cells);
  if (d > 0) lv.half = std::make_unique_for_overwrite<uint32_t[]>(cells * d);
  return lv;
}

size_t CountingTree::KeyOrder::MemoryBytes(size_t d) const {
  size_t bytes = 0;
  for (const Level& lv : levels) {
    bytes += lv.cells * (sizeof(uint64_t) + 3 * sizeof(uint32_t));
    if (lv.half != nullptr) bytes += lv.cells * d * sizeof(uint32_t);
  }
  return bytes;
}

void CountingTree::Flush() {
  Pending();  // A sealed tree's cells become its ranked key order.
  if (run_.empty()) return;
  const size_t stride = KeyWords() + 1;
  const size_t points = run_.size() / stride;
  std::vector<uint64_t> run = std::move(run_);
  run_ = {};
  for (size_t r = 0; r < points; ++r) run[r * stride + stride - 1] = r;
  auto scratch = std::make_unique_for_overwrite<uint64_t[]>(run.size());
  const KeyRange range{run.data(), scratch.get(), points};
  KeyOrder key_order = BuildKeyOrder(num_dims_, num_resolutions_,
                                     std::span(&range, 1), points, nullptr);
  run = {};
  scratch.reset();
  MergePending(key_order);
}

Result<CountingTree> CountingTree::BuildPartitioned(size_t num_dims,
                                                    int num_resolutions,
                                                    size_t num_points,
                                                    ThreadPool& pool,
                                                    const SliceScan& scan) {
  Result<CountingTree> tree = Empty(num_dims, num_resolutions);
  MRCC_RETURN_IF_ERROR(tree.status());
  const size_t d = num_dims;
  const int resolutions = tree->num_resolutions_;  // Clamped.
  const size_t words = KeyWordsFor(d, resolutions);
  const size_t stride = words + 1;
  const auto workers = static_cast<size_t>(pool.num_threads());
  // Each worker's slice of a round fills at most kMaxRunBytes of
  // records, and positions within a round fit the layout's 32 bits.
  const size_t round_points = std::min<size_t>(
      workers * std::max<size_t>(1, kMaxRunBytes / (stride * sizeof(uint64_t))),
      UINT32_MAX);
  for (size_t round_begin = 0; round_begin < num_points;
       round_begin += round_points) {
    const size_t count = std::min(round_points, num_points - round_begin);

    // 1. Scan: worker w writes its slice's records at the slice's own
    // offset, each carrying its position in the round.
    auto scanned = std::make_unique_for_overwrite<uint64_t[]>(count * stride);
    std::vector<size_t> filled(workers, 0);
    std::vector<Status> scanned_status(workers);
    const auto slice_begin = [&](size_t w) {
      return SliceBegin(count, static_cast<int>(workers), static_cast<int>(w));
    };
    pool.ParallelFor(workers, [&](int, size_t first, size_t last) {
      for (size_t w = first; w < last; ++w) {
        const size_t lo = slice_begin(w);
        const size_t hi = slice_begin(w + 1);
        if (lo == hi) continue;
        SliceRun run(d, resolutions, scanned.get() + lo * stride, hi - lo, lo);
        scanned_status[w] =
            scan(static_cast<int>(w), round_begin + lo, round_begin + hi, run);
        filled[w] = run.size_;
      }
    });
    for (const Status& status : scanned_status) MRCC_RETURN_IF_ERROR(status);
    size_t total = 0;
    for (size_t n : filled) total += n;

    // 2. Partition into one key range per worker (one range: as is).
    auto partitioned =
        std::make_unique_for_overwrite<uint64_t[]>(count * stride);
    std::vector<KeyRange> ranges;
    if (workers == 1) {
      ranges.push_back(KeyRange{scanned.get(), partitioned.get(), total});
    } else {
      std::vector<const uint64_t*> slices(workers);
      for (size_t w = 0; w < workers; ++w) {
        slices[w] = scanned.get() + slice_begin(w) * stride;
      }
      size_t at = 0;
      for (size_t size : PartitionByKey(slices, filled, d, resolutions,
                                        partitioned.get(), pool)) {
        ranges.push_back(KeyRange{partitioned.get() + at * stride,
                                  scanned.get() + at * stride, size});
        at += size;
      }
    }

    // 3. Sort and count each range, merging the round in.
    KeyOrder key_order =
        BuildKeyOrder(d, resolutions, ranges, count, &pool);
    scanned.reset();
    partitioned.reset();
    tree->MergePending(key_order);
  }
  // 4. Lay the levels out once.
  tree->LayOutPending(&pool);
  return tree;
}

CountingTree::KeyOrder CountingTree::BuildKeyOrder(
    size_t d, int resolutions, std::span<const KeyRange> ranges,
    uint64_t position_bound, ThreadPool* pool) {
  MRCC_TRACE_SPAN_N("tree.build.sort", static_cast<int64_t>(ranges.size()));
  const auto num_levels = static_cast<size_t>(resolutions);
  const int deepest = resolutions - 1;
  const size_t words = KeyWordsFor(d, resolutions);
  const size_t stride = words + 1;
  const auto digit_lo = [&](int h) {  // Lowest key bit of level h's digit.
    return d * static_cast<size_t>(resolutions - h);
  };

  // Sort each range by the digits of levels 1..H-1: then every cell of
  // every level is one contiguous group of records, and LSD stability
  // keeps each group in stream order. Ranges are disjoint in key space,
  // so each range's cells follow the previous range's at every level.
  struct SortedRange {
    const uint64_t* records = nullptr;
    std::unique_ptr<uint8_t[]> split;
    std::vector<size_t> cells;
  };
  std::vector<SortedRange> sorted(ranges.size());
  ForEachIndex(pool, ranges.size(), [&](size_t r) {
    const KeyRange& range = ranges[r];
    SortedRange& out = sorted[r];
    out.records = RadixSortRecords(range.records, range.scratch, range.count,
                                   stride, words, d,
                                   d * static_cast<size_t>(resolutions));
    out.split = std::make_unique_for_overwrite<uint8_t[]>(range.count);
    out.cells.assign(num_levels, 0);
    SplitLevels(out.records, range.count, d, resolutions, out.split.get(),
                out.cells.data());
  });

  KeyOrder key_order;
  key_order.position_bound = position_bound;
  key_order.levels.resize(num_levels);
  // offset[r][h]: range r's first cell at level h.
  std::vector<std::vector<size_t>> offset(ranges.size(),
                                          std::vector<size_t>(num_levels));
  for (int h = 1; h <= deepest; ++h) {
    const auto hs = static_cast<size_t>(h);
    size_t cells = 0;
    for (size_t r = 0; r < ranges.size(); ++r) {
      offset[r][hs] = cells;
      cells += sorted[r].cells[hs];
    }
    key_order.levels[hs] =
        KeyOrder::Level::Allocate(cells, h == deepest ? d : 0);
  }
  for (const KeyRange& range : ranges) key_order.points += range.count;

  // Each range fills its own cells. Record r opens one cell at each
  // level from split[r] down; the deepest level is counted from its
  // records, then each upper level's n and first are taken from its
  // children (LayOut sums their half counts).
  ForEachIndex(pool, ranges.size(), [&](size_t r) {
    const SortedRange& in = sorted[r];
    const uint64_t low_mask = (uint64_t{1} << d) - 1;  // The H-th digit.
    std::vector<uint32_t> opened(num_levels, 0);
    for (int h = 1; h <= deepest; ++h) {
      opened[static_cast<size_t>(h)] =
          static_cast<uint32_t>(offset[r][static_cast<size_t>(h)]);
    }
    KeyOrder::Level& leaf = key_order.levels[static_cast<size_t>(deepest)];
    for (size_t i = 0; i < ranges[r].count; ++i) {
      const uint64_t* rec = in.records + i * stride;
      for (int h = in.split[i]; h <= deepest; ++h) {
        const auto hs = static_cast<size_t>(h);
        KeyOrder::Level& lv = key_order.levels[hs];
        const uint32_t c = opened[hs]++;
        lv.loc[c] = KeyBits(rec, words, digit_lo(h), static_cast<int>(d));
        lv.parent[c] = h == 1 ? 0 : opened[hs - 1] - 1;
        lv.n[c] = 0;
        // Stable sorting puts a deepest cell's earliest record first.
        lv.first[c] =
            h == deepest ? static_cast<uint32_t>(rec[words]) : UINT32_MAX;
        if (h == deepest) {
          std::fill_n(lv.half.get() + size_t{c} * d, d, uint32_t{0});
        }
      }
      const uint32_t c = opened[static_cast<size_t>(deepest)] - 1;
      leaf.n[c] += 1;
      // The point is in the lower half of its deepest cell along e_j
      // exactly when its H-th digit j is 0.
      const uint64_t lower = ~rec[0] & low_mask;
      uint32_t* half = leaf.half.get() + size_t{c} * d;
      for (size_t j = 0; j < d; ++j) {
        half[j] += static_cast<uint32_t>((lower >> j) & 1);
      }
    }
    for (int h = deepest; h >= 2; --h) {
      const auto hs = static_cast<size_t>(h);
      const KeyOrder::Level& lv = key_order.levels[hs];
      KeyOrder::Level& up = key_order.levels[hs - 1];
      for (size_t c = offset[r][hs]; c < opened[hs]; ++c) {
        const uint32_t p = lv.parent[c];
        up.n[p] += lv.n[c];
        up.first[p] = std::min(up.first[p], lv.first[c]);
      }
    }
  });
  return key_order;
}

CountingTree CountingTree::LayOut(size_t d, int resolutions,
                                  KeyOrder& key_order, ThreadPool* pool,
                                  const HalfRows* deepest_half) {
  MRCC_TRACE_SPAN_N("tree.build.layout",
                    static_cast<int64_t>(key_order.points));
  const int deepest = resolutions - 1;
  const auto num_levels = static_cast<size_t>(resolutions);
  std::vector<KeyOrder::Level>& levels = key_order.levels;
  const auto cells = [&](size_t h) { return levels[h].cells; };
  // Per-level tasks run deepest level first: lower levels hold more
  // cells, so contiguous task slices stay balanced across threads.
  const auto each_level = [&](int top, const std::function<void(size_t)>& fn) {
    ForEachIndex(pool, static_cast<size_t>(top),
                 [&](size_t i) { fn(static_cast<size_t>(top) - i); });
  };

  // Creation order. The point at a cell's first stream position creates
  // it and, above the deepest level, its child node; a point creates its
  // new cells top-down. So the node pool is the root followed by the
  // child nodes of the upper cells in (first, level) order; level h + 1
  // lists its nodes by their parent cells' first positions, and a node
  // lists its cells by their own.
  //
  // Per level: by_first[h][i] = first << 32 | key-order index of the
  // level's i-th earliest cell; for an upper cell c, fanout[h][c] cells
  // in its child node, whose slice starts at child_first[h][c].
  std::vector<std::unique_ptr<uint64_t[]>> by_first(num_levels);
  std::vector<std::vector<uint32_t>> fanout(num_levels);
  std::vector<std::vector<uint32_t>> child_first(num_levels);
  const size_t first_bits =
      static_cast<size_t>(std::bit_width(key_order.position_bound));
  each_level(deepest, [&](size_t h) {
    const KeyOrder::Level& lv = levels[h];
    auto sorted = std::make_unique_for_overwrite<uint64_t[]>(lv.cells);
    auto scratch = std::make_unique_for_overwrite<uint64_t[]>(lv.cells);
    for (size_t c = 0; c < lv.cells; ++c) {
      sorted[c] = uint64_t{lv.first[c]} << 32 | c;
    }
    if (RadixSortRecords(sorted.get(), scratch.get(), lv.cells, 1, 1, 32,
                         32 + first_bits) == scratch.get()) {
      sorted = std::move(scratch);
    }
    if (h < static_cast<size_t>(deepest)) {
      fanout[h].assign(lv.cells, 0);
      const KeyOrder::Level& below = levels[h + 1];
      for (size_t c = 0; c < below.cells; ++c) ++fanout[h][below.parent[c]];
      child_first[h].resize(lv.cells);
      uint32_t at = 0;
      for (size_t r = 0; r < lv.cells; ++r) {
        const auto c = static_cast<uint32_t>(sorted[r]);
        child_first[h][c] = at;
        at += fanout[h][c];
      }
    }
    by_first[h] = std::move(sorted);
  });

  // The node pool's order: merge the upper levels' lists by (first,
  // level). node_of[h][c] is upper cell c's child node.
  size_t num_nodes = 1;
  for (int h = 1; h < deepest; ++h) num_nodes += cells(static_cast<size_t>(h));
  std::vector<std::vector<uint32_t>> node_of(num_levels);
  std::vector<size_t> next(num_levels, 0);
  for (int h = 1; h < deepest; ++h) {
    node_of[static_cast<size_t>(h)].resize(cells(static_cast<size_t>(h)));
  }
  for (uint32_t k = 1; k < num_nodes; ++k) {
    size_t level = 0;
    uint64_t earliest = UINT64_MAX;
    for (size_t h = 1; h < static_cast<size_t>(deepest); ++h) {
      if (next[h] == cells(h)) continue;
      const uint64_t first = by_first[h][next[h]] >> 32;
      if (first < earliest) {
        earliest = first;
        level = h;
      }
    }
    node_of[level][static_cast<uint32_t>(by_first[level][next[level]++])] = k;
  }

  CountingTree tree(d, resolutions);
  tree.total_points_ = key_order.points;
  tree.arenas_.resize(num_levels);
  tree.nodes_.resize(num_nodes);
  tree.nodes_[0].count = static_cast<uint32_t>(cells(1));
  each_level(deepest - 1, [&](size_t h) {
    for (size_t r = 0; r < cells(h); ++r) {
      const auto c = static_cast<uint32_t>(by_first[h][r]);
      Node& node = tree.nodes_[node_of[h][c]];
      node.level = static_cast<int>(h) + 1;
      node.first = child_first[h][c];
      node.count = fanout[h][c];
    }
  });
  fanout = {};

  // Base coordinates, a level at a time: a node's base is its parent
  // cell's coordinates, one level below its owner's base.
  tree.base_.resize(num_nodes * d);
  std::fill_n(tree.base_.begin(), d, uint64_t{0});
  for (size_t h = 1; h < static_cast<size_t>(deepest); ++h) {
    const KeyOrder::Level& lv = levels[h];
    ForSlices(pool, lv.cells, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        if (c + kPrefetchAhead < end) {
          const size_t ahead = c + kPrefetchAhead;
          PrefetchForWrite(tree.base_.data() + size_t{node_of[h][ahead]} * d,
                           d * sizeof(uint64_t));
          if (h > 1) {
            __builtin_prefetch(tree.base_.data() +
                               size_t{node_of[h - 1][lv.parent[ahead]]} * d);
          }
        }
        const uint32_t owner = h == 1 ? 0 : node_of[h - 1][lv.parent[c]];
        const uint64_t* base = tree.base_.data() + size_t{owner} * d;
        uint64_t* child = tree.base_.data() + size_t{node_of[h][c]} * d;
        for (size_t j = 0; j < d; ++j) {
          child[j] = base[j] * 2 + ((lv.loc[c] >> j) & 1);
        }
      }
    });
  }

  // Each level's arena order: cells by owner node (its slice), then by
  // first position — the next free slot of its owner's slice in
  // first-position order (child_first turns into the free cursors).
  // slot[h][c] is key-order cell c's arena index.
  std::vector<std::vector<uint32_t>> slot(num_levels);
  each_level(deepest, [&](size_t h) {
    slot[h].resize(cells(h));
    for (size_t r = 0; r < cells(h); ++r) {
      const auto c = static_cast<uint32_t>(by_first[h][r]);
      slot[h][c] = h == 1 ? static_cast<uint32_t>(r)
                          : child_first[h - 1][levels[h].parent[c]]++;
    }
  });
  by_first.clear();
  child_first = {};

  // Write each level's arena from its key-order cells, read in order,
  // top-down. An upper cell's half counts are summed from its children
  // (a child whose loc bit j is 0 lies in its parent's lower half along
  // e_j); the deepest level's are copied, or summed from a fold's
  // sources. Each key-order level is freed once written: only its own
  // write and its parents' read it.
  for (size_t h = 1; h < num_levels; ++h) {
    KeyOrder::Level& lv = levels[h];
    Arena& arena = tree.arenas_[h];
    arena.loc.resize(lv.cells);
    arena.n.resize(lv.cells);
    arena.child.resize(lv.cells);
    arena.owner.resize(lv.cells);
    arena.half.resize(lv.cells * d);
    const bool upper = h < static_cast<size_t>(deepest);
    const KeyOrder::Level& below = levels[upper ? h + 1 : h];
    ForSlices(pool, lv.cells, [&](size_t begin, size_t end) {
      // The level below is sorted by parent: the children of cells
      // [begin, end) start at the first child of cell `begin`.
      size_t child =
          upper ? static_cast<size_t>(
                      std::lower_bound(below.parent.get(),
                                       below.parent.get() + below.cells,
                                       begin) -
                      below.parent.get())
                : 0;
      for (size_t c = begin; c < end; ++c) {
        if (c + kPrefetchAhead < end) {
          const uint32_t ahead = slot[h][c + kPrefetchAhead];
          PrefetchForWrite(arena.half.data() + size_t{ahead} * d,
                           d * sizeof(uint32_t));
          PrefetchForWrite(arena.loc.data() + ahead, sizeof(uint64_t));
          PrefetchForWrite(arena.n.data() + ahead, sizeof(uint32_t));
          PrefetchForWrite(arena.child.data() + ahead, sizeof(int32_t));
          PrefetchForWrite(arena.owner.data() + ahead, sizeof(uint32_t));
          if (!upper && lv.half == nullptr) {  // The cell's first row.
            __builtin_prefetch(
                deepest_half->rows[deepest_half->at[c + kPrefetchAhead]]);
          }
        }
        const uint32_t i = slot[h][c];
        arena.loc[i] = lv.loc[c];
        arena.n[i] = lv.n[c];
        arena.child[i] = upper ? static_cast<int32_t>(node_of[h][c]) : -1;
        arena.owner[i] = h == 1 ? 0 : node_of[h - 1][lv.parent[c]];
        uint32_t* half = arena.half.data() + size_t{i} * d;
        if (!upper) {
          if (lv.half != nullptr) {
            std::copy_n(lv.half.get() + c * d, d, half);
          } else {
            const uint32_t* const* rows = deepest_half->rows.data();
            SumRows(rows + deepest_half->at[c],
                    rows + deepest_half->at[c + 1], d, half);
          }
          continue;
        }
        uint32_t sums[kMaxDims + 3] = {};
        for (; child < below.cells && below.parent[child] == c; ++child) {
          AddWhereSet(~below.loc[child], below.n[child], d, sums);
        }
        std::copy_n(sums, d, half);
      }
    });
    lv = KeyOrder::Level{};
    slot[h] = {};
  }
  node_of = {};
  DCheckInvariants(tree);
  return tree;
}

CountingTree::KeyOrder CountingTree::RankedKeyOrder() const {
  const size_t d = num_dims_;
  const size_t deepest = static_cast<size_t>(num_resolutions_ - 1);
  KeyOrder key_order;
  key_order.levels.resize(deepest + 1);
  key_order.points = total_points_;
  key_order.position_bound =
      std::max<uint64_t>(nodes_.size(), arenas_[deepest].size());
  // Level h's cells are its nodes' cells, the nodes in their parent
  // cells' key order (the root for h = 1), each node's cells by loc.
  // arena_of[c]: the arena index of key-order cell c of the level above.
  std::vector<uint32_t> arena_of;
  for (size_t h = 1; h <= deepest; ++h) {
    const Arena& arena = arenas_[h];
    KeyOrder::Level& lv = key_order.levels[h];
    lv = KeyOrder::Level::Allocate(arena.size(), h == deepest ? d : 0);
    std::vector<uint32_t> at(arena.size());
    const size_t parents = h == 1 ? 1 : arena_of.size();
    size_t c = 0;
    for (size_t p = 0; p < parents; ++p) {
      const Node& node =
          nodes_[h == 1 ? 0
                        : static_cast<size_t>(
                              arenas_[h - 1].child[arena_of[p]])];
      uint32_t* cells = at.data() + c;
      std::iota(cells, cells + node.count, node.first);
      std::sort(cells, cells + node.count, [&arena](uint32_t x, uint32_t y) {
        return arena.loc[x] < arena.loc[y];
      });
      std::fill_n(lv.parent.get() + c, node.count, static_cast<uint32_t>(p));
      c += node.count;
    }
    MRCC_DCHECK_EQ(c, arena.size());
    for (c = 0; c < lv.cells; ++c) {
      const uint32_t i = at[c];
      lv.loc[c] = arena.loc[i];
      lv.n[c] = arena.n[i];
      // A node's pool index follows its parent cell's creation; a
      // deepest cell's arena index its creation within its node.
      lv.first[c] = h == deepest ? i : static_cast<uint32_t>(arena.child[i]);
      if (h == deepest) {
        std::copy_n(arena.half.data() + size_t{i} * d, d,
                    lv.half.get() + c * d);
      }
    }
    arena_of = std::move(at);
  }
  return key_order;
}

CountingTree::KeyOrder& CountingTree::Pending() {
  if (pending_ == nullptr) {
    pending_ = std::make_unique<KeyOrder>(RankedKeyOrder());
    nodes_ = std::vector<Node>();
    base_ = Packed<uint64_t>();
    arenas_ = std::vector<Arena>();
  }
  return *pending_;
}

// The k-way merge of the key orders of consecutive stream segments,
// oldest first. Every source's level is sorted by (parent, loc) and the
// merged parents keep each source's parent order, so the merged level is
// sorted by (merged parent, loc). A source's cells of one parent form a
// run; the runs are bucketed by merged parent, and each bucket's runs are
// merged by loc — below the top levels a parent is held by few sources
// and has few children, so the merge never scans every source per cell.
// Source s's ranks are offset by the summed position bounds of the
// sources before it, so a cell several sources hold keeps the earliest
// one's rank, the lowest.
//
// The key space is cut at level-1 locs into one part per pool thread
// (at quantiles of the largest source's level-1 counts). At every level
// a part's cells are one range of each source and one range of the
// merged level, so the parts merge independently: the constructor finds
// each source cell's merged index within its part, every level, one part
// per thread, and Level(h) writes merged level h, each part at its
// offset.
class CountingTree::KeyOrderMerge {
 public:
  KeyOrderMerge(std::span<const KeyOrder* const> sources, size_t d,
                ThreadPool* pool);

  /// Merged level h. It reads the sources' level h only, which may be
  /// freed afterwards, and holds no half counts: half_rows() lists the
  /// deepest level's.
  KeyOrder::Level Level(size_t h);

  /// Each merged deepest cell's source rows.
  const HalfRows& half_rows() const { return half_rows_; }

  /// The fold's counters: each merged cell counts as created (an upper
  /// one also opens a node), every other source cell as merged.
  const MergeTreeStats& stats() const { return stats_; }

 private:
  /// Source s's cells of part t at level h: [Begin(h, s, t),
  /// Begin(h, s, t + 1)).
  size_t& Begin(size_t h, size_t s, size_t t) {
    return begin_[h][s * (parts_ + 1) + t];
  }

  /// Finds each source cell's merged index within part t at every level,
  /// and the source rows of the part's deepest merged cells.
  void MergePart(size_t t);

  std::vector<const KeyOrder*> sources_;
  size_t d_;
  size_t deepest_;
  ThreadPool* pool_;
  size_t parts_;
  std::vector<uint32_t> offset_;  // Each source's rank offset.
  std::vector<std::vector<size_t>> begin_;
  // to_[h][s][j]: the merged index of source s's level-h cell j within
  // its part.
  std::vector<std::vector<std::vector<uint32_t>>> to_;
  // Part t's merged level-h cells are [out_begin_[h][t],
  // out_begin_[h][t + 1]).
  std::vector<std::vector<size_t>> out_begin_;
  // Part t's deepest merged cells' first rows, then its row count.
  std::vector<std::vector<uint32_t>> part_at_;
  HalfRows half_rows_;
  MergeTreeStats stats_;
};

CountingTree::KeyOrderMerge::KeyOrderMerge(
    std::span<const KeyOrder* const> sources, size_t d, ThreadPool* pool)
    : sources_(sources.begin(), sources.end()),
      d_(d),
      deepest_(sources[0]->levels.size() - 1),
      pool_(pool),
      parts_(pool != nullptr ? static_cast<size_t>(pool->num_threads()) : 1),
      offset_(sources.size()),
      begin_(deepest_ + 1,
             std::vector<size_t>(sources.size() * (parts_ + 1), 0)),
      to_(deepest_ + 1, std::vector<std::vector<uint32_t>>(sources.size())),
      out_begin_(deepest_ + 1, std::vector<size_t>(parts_ + 1, 0)),
      part_at_(parts_) {
  const size_t k = sources_.size();
  // The layout sorts ranks as 32-bit words, so their bound must fit one:
  // check it rather than let a rank wrap.
  uint64_t bound = 0;
  size_t largest = 0;
  for (size_t s = 0; s < k; ++s) {
    offset_[s] = static_cast<uint32_t>(bound);
    bound += sources_[s]->position_bound;
    MRCC_CHECK_LE(bound, uint64_t{UINT32_MAX});
    if (sources_[s]->points > sources_[largest]->points) largest = s;
  }

  // Part t holds the level-1 locs in [cut[t], cut[t + 1]): cut where the
  // largest source's level-1 counts pass each 1/parts of its points.
  std::vector<uint64_t> cut(parts_ + 1, UINT64_MAX);
  cut[0] = 0;
  {
    const KeyOrder::Level& top = sources_[largest]->levels[1];
    uint64_t seen = 0;
    size_t t = 1;
    for (size_t c = 0; c < top.cells && t < parts_; ++c) {
      while (t < parts_ &&
             seen * parts_ >= t * sources_[largest]->points) {
        cut[t++] = top.loc[c];
      }
      seen += top.n[c];
    }
  }
  // Each part's range of every source level: level 1 by loc, each level
  // below as the children of the range above (cells sorted by parent).
  for (size_t s = 0; s < k; ++s) {
    for (size_t h = 1; h <= deepest_; ++h) {
      const KeyOrder::Level& lv = sources_[s]->levels[h];
      for (size_t t = 0; t <= parts_; ++t) {
        Begin(h, s, t) =
            h == 1 ? static_cast<size_t>(
                         std::lower_bound(lv.loc.get(), lv.loc.get() + lv.cells,
                                          cut[t]) -
                         lv.loc.get())
                   : static_cast<size_t>(
                         std::lower_bound(lv.parent.get(),
                                          lv.parent.get() + lv.cells,
                                          Begin(h - 1, s, t)) -
                         lv.parent.get());
      }
      to_[h][s].resize(lv.cells);
    }
  }
  size_t rows = 0;
  for (size_t s = 0; s < k; ++s) rows += sources_[s]->levels[deepest_].cells;
  half_rows_.rows.resize(rows);

  ForEachIndex(pool_, parts_, [this](size_t t) { MergePart(t); });

  for (size_t h = 1; h <= deepest_; ++h) {
    for (size_t t = 0; t < parts_; ++t) {
      out_begin_[h][t + 1] += out_begin_[h][t];
    }
    size_t source_cells = 0;
    for (size_t s = 0; s < k; ++s) source_cells += sources_[s]->levels[h].cells;
    const size_t merged = out_begin_[h][parts_];
    stats_.cells_created += merged;
    stats_.cells_merged += source_cells - merged;
    if (h < deepest_) stats_.nodes_created += merged;
  }
  half_rows_.at.resize(out_begin_[deepest_][parts_] + 1);
  for (size_t t = 0; t < parts_; ++t) {
    std::copy(part_at_[t].begin(), part_at_[t].end(),
              half_rows_.at.begin() +
                  static_cast<std::ptrdiff_t>(out_begin_[deepest_][t]));
  }
  half_rows_.at.back() = static_cast<uint32_t>(rows);
  part_at_ = {};
}

void CountingTree::KeyOrderMerge::MergePart(size_t t) {
  constexpr uint64_t kNoLoc = UINT64_MAX;  // Above every d-bit loc.
  const size_t k = sources_.size();
  struct Run {
    uint32_t source;
    uint32_t at;  // The run's next unmerged cell.
    uint32_t end;
  };
  std::vector<uint32_t> bucket;
  std::vector<Run> runs;
  std::vector<const uint64_t*> locs(k);
  std::vector<const uint32_t*> halves(k);
  std::vector<uint32_t*> tos(k);
  // The part's deepest rows follow every earlier part's.
  size_t row = 0;
  for (size_t s = 0; s < k; ++s) row += Begin(deepest_, s, t);
  size_t parents = 1;  // The part's merged cells of the level above.
  for (size_t h = 1; h <= deepest_; ++h) {
    const bool deepest = h == deepest_;
    // Bucket every source's runs by merged parent (a counting sort;
    // within a bucket the runs keep source order).
    const auto each_run = [&](size_t s, const auto& fn) {
      const KeyOrder::Level& lv = sources_[s]->levels[h];
      const size_t stop = Begin(h, s, t + 1);
      for (size_t at = Begin(h, s, t), end = 0; at < stop; at = end) {
        end = at + 1;
        while (end < stop && lv.parent[end] == lv.parent[at]) ++end;
        fn(h == 1 ? 0 : to_[h - 1][s][lv.parent[at]],
           static_cast<uint32_t>(at), static_cast<uint32_t>(end));
      }
    };
    bucket.assign(parents + 1, 0);
    for (size_t s = 0; s < k; ++s) {
      each_run(s, [&](uint32_t p, uint32_t, uint32_t) { ++bucket[p + 1]; });
    }
    for (size_t p = 0; p < parents; ++p) bucket[p + 1] += bucket[p];
    runs.resize(bucket[parents]);
    for (size_t s = 0; s < k; ++s) {
      each_run(s, [&](uint32_t p, uint32_t at, uint32_t end) {
        runs[bucket[p]++] = Run{static_cast<uint32_t>(s), at, end};
      });
    }
    // bucket[p] now ends bucket p: bucket p is [bucket[p - 1], bucket[p]).

    // Each source cell's merged index, a merged parent's bucket at a time;
    // at the deepest level also each merged cell's source rows, in order.
    for (size_t s = 0; s < k; ++s) {
      locs[s] = sources_[s]->levels[h].loc.get();
      halves[s] = sources_[s]->levels[h].half.get();
      tos[s] = to_[h][s].data();
    }
    std::vector<uint32_t>& at = part_at_[t];
    uint32_t merged = 0;
    // Source cell `r.at` goes to merged cell `merged`.
    const auto take = [&](Run& r) {
      if (deepest) half_rows_.rows[row++] = halves[r.source] + r.at * d_;
      tos[r.source][r.at++] = merged;
    };
    // Merged cell `merged` starts: its source rows start at `row`.
    const auto start_cell = [&] {
      if (deepest) at.push_back(static_cast<uint32_t>(row));
    };
    for (size_t p = 0; p < parents; ++p) {
      Run* const first = runs.data() + (p == 0 ? 0 : bucket[p - 1]);
      Run* const last = runs.data() + bucket[p];
      if (last - first == 1) {
        while (first->at < first->end) {
          start_cell();
          take(*first);
          ++merged;
        }
        continue;
      }
      for (;;) {
        uint64_t loc = kNoLoc;
        for (const Run* r = first; r < last; ++r) {
          if (r->at < r->end) loc = std::min(loc, locs[r->source][r->at]);
        }
        if (loc == kNoLoc) break;
        start_cell();
        for (Run* r = first; r < last; ++r) {
          if (r->at < r->end && locs[r->source][r->at] == loc) take(*r);
        }
        ++merged;
      }
    }
    out_begin_[h][t + 1] = merged;
    parents = merged;
  }
}

CountingTree::KeyOrder::Level CountingTree::KeyOrderMerge::Level(size_t h) {
  // The merged cells. Sources go oldest first, so the first source to
  // reach a cell gives it its earliest, lowest rank; counts add.
  KeyOrder::Level out = KeyOrder::Level::Allocate(out_begin_[h][parts_], 0);
  ForEachIndex(pool_, parts_, [&](size_t t) {
    const size_t base = out_begin_[h][t];
    const size_t parent_base = h == 1 ? 0 : out_begin_[h - 1][t];
    const size_t end = out_begin_[h][t + 1];
    std::fill(out.n.get() + base, out.n.get() + end, uint32_t{0});
    std::fill(out.first.get() + base, out.first.get() + end, UINT32_MAX);
    for (size_t s = 0; s < sources_.size(); ++s) {
      const KeyOrder::Level& lv = sources_[s]->levels[h];
      const uint32_t* to = to_[h][s].data();
      const uint32_t* parent_to = h == 1 ? nullptr : to_[h - 1][s].data();
      const uint32_t offset = offset_[s];
      for (size_t j = Begin(h, s, t); j < Begin(h, s, t + 1); ++j) {
        const size_t o = base + to[j];
        out.loc[o] = lv.loc[j];
        out.parent[o] = h == 1 ? 0
                               : static_cast<uint32_t>(
                                     parent_base + parent_to[lv.parent[j]]);
        out.first[o] = std::min(out.first[o], lv.first[j] + offset);
        out.n[o] += lv.n[j];
      }
    }
  });
  return out;
}

MergeTreeStats CountingTree::MergePending(KeyOrder& source) {
  KeyOrder& into = Pending();
  const size_t deepest = static_cast<size_t>(num_resolutions_ - 1);
  total_points_ += source.points;
  if (into.points == 0) {  // Nothing to merge with: adopt the source.
    MergeTreeStats stats;
    for (size_t h = 1; h <= deepest; ++h) {
      stats.cells_created += source.levels[h].cells;
      if (h < deepest) stats.nodes_created += source.levels[h].cells;
    }
    into = std::move(source);
    return stats;
  }
  // The pending cells are counted already: only the source's are merged
  // or created.
  uint64_t pending_cells = 0;
  uint64_t pending_nodes = 0;
  const KeyOrder* sources[] = {&into, &source};
  KeyOrderMerge merge(sources, num_dims_, nullptr);
  for (size_t h = 1; h <= deepest; ++h) {
    pending_cells += into.levels[h].cells;
    if (h < deepest) pending_nodes += into.levels[h].cells;
    KeyOrder::Level out = merge.Level(h);
    if (h == deepest) {  // Sum the half counts while both sides are here.
      const size_t d = num_dims_;
      out.half = std::make_unique_for_overwrite<uint32_t[]>(out.cells * d);
      const HalfRows& half = merge.half_rows();
      for (size_t c = 0; c < out.cells; ++c) {
        const uint32_t* const* rows = half.rows.data();
        SumRows(rows + half.at[c], rows + half.at[c + 1], d,
                out.half.get() + c * d);
      }
    }
    into.levels[h] = std::move(out);
    source.levels[h] = KeyOrder::Level{};
  }
  MergeTreeStats stats = merge.stats();
  stats.cells_created -= pending_cells;
  stats.nodes_created -= pending_nodes;
  into.points += source.points;
  into.position_bound += source.position_bound;
  return stats;
}

Result<CountingTree> CountingTree::Fold(
    std::span<const CountingTree* const> parts, ThreadPool* pool,
    MergeTreeStats* stats) {
  if (parts.empty()) return Status::InvalidArgument("no trees to fold");
  const size_t d = parts[0]->num_dims_;
  const int resolutions = parts[0]->num_resolutions_;
  for (const CountingTree* part : parts) {
    if (part->num_dims_ != d) {
      return Status::InvalidArgument("tree dimensionality mismatch");
    }
    if (part->num_resolutions_ != resolutions) {
      return Status::InvalidArgument("tree resolution mismatch");
    }
    if (!part->run_.empty()) {
      return Status::InvalidArgument(
          "fold part has a pending run: call Flush() before folding it");
    }
  }
  // A flushed part's key order is read where it lies; a sealed part's is
  // ranked from its arenas.
  std::vector<KeyOrder> ranked;
  ranked.reserve(parts.size());
  std::vector<const KeyOrder*> sources;
  KeyOrder window;
  window.levels.resize(static_cast<size_t>(resolutions));
  for (const CountingTree* part : parts) {
    if (part->pending_ == nullptr) ranked.push_back(part->RankedKeyOrder());
    sources.push_back(part->pending_ != nullptr ? part->pending_.get()
                                                : &ranked.back());
    window.points += sources.back()->points;
    window.position_bound += sources.back()->position_bound;
  }
  if (window.position_bound > UINT32_MAX) {
    return Status::InvalidArgument(
        "fold parts' summed rank bounds pass 2^32 - 1");
  }
  KeyOrderMerge merge(sources, d, pool);
  for (size_t h = 1; h < window.levels.size(); ++h) {
    window.levels[h] = merge.Level(h);
  }
  CountingTree tree =
      LayOut(d, resolutions, window, pool, &merge.half_rows());
  if (stats != nullptr) *stats = merge.stats();
  return tree;
}

Result<CountingTree> CountingTree::Build(const Dataset& data,
                                         int num_resolutions) {
  if (!data.InUnitCube()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0,1)^d before building the tree");
  }
  Result<CountingTree> tree = Empty(data.NumDims(), num_resolutions);
  MRCC_RETURN_IF_ERROR(tree.status());
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    MRCC_RETURN_IF_ERROR(tree->Insert(data.Point(i)));
  }
  tree->Seal();
  return tree;
}

int64_t CountingTree::FindInNode(const Node& node, uint64_t loc) const {
  const Arena& arena = arenas_[static_cast<size_t>(node.level)];
  const int64_t off =
      simd::FindU64(arena.loc.data() + node.first, node.count, loc);
  return off < 0 ? -1 : static_cast<int64_t>(node.first) + off;
}

// ---------------------------------------------------------------------------
// Read API.

CountingTree::LevelView CountingTree::Level(int h) const {
  MRCC_DCHECK(sealed());
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return LevelView(this, h);
}

size_t CountingTree::LevelView::num_cells() const {
  return tree_->arenas_[static_cast<size_t>(level_)].size();
}

size_t CountingTree::LevelView::num_dims() const { return tree_->num_dims_; }

std::span<const uint64_t> CountingTree::LevelView::locs() const {
  return tree_->arenas_[static_cast<size_t>(level_)].loc;
}

std::span<const uint32_t> CountingTree::LevelView::counts() const {
  return tree_->arenas_[static_cast<size_t>(level_)].n;
}

std::span<const int32_t> CountingTree::LevelView::children() const {
  return tree_->arenas_[static_cast<size_t>(level_)].child;
}

std::span<const uint32_t> CountingTree::LevelView::half() const {
  return tree_->arenas_[static_cast<size_t>(level_)].half;
}

std::span<const uint32_t> CountingTree::LevelView::half_of(uint32_t i) const {
  const size_t d = tree_->num_dims_;
  return std::span<const uint32_t>(
      tree_->arenas_[static_cast<size_t>(level_)].half.data() + i * d, d);
}

void CountingTree::LevelView::CoordsInto(uint32_t i, uint64_t* out) const {
  const Arena& arena = tree_->arenas_[static_cast<size_t>(level_)];
  const uint64_t* base = tree_->BaseOf(arena.owner[i]);
  const uint64_t loc = arena.loc[i];
  const size_t d = tree_->num_dims_;
  for (size_t j = 0; j < d; ++j) {
    out[j] = base[j] * 2 + ((loc >> j) & 1);
  }
}

std::vector<uint64_t> CountingTree::LevelView::Coords(uint32_t i) const {
  std::vector<uint64_t> coords(tree_->num_dims_);
  CoordsInto(i, coords.data());
  return coords;
}

bool CountingTree::LevelView::AtOffset(uint32_t a, uint32_t b,
                                      const uint64_t* offset) const {
  const Arena& arena = tree_->arenas_[static_cast<size_t>(level_)];
  const uint64_t loc_a = arena.loc[a];
  const uint64_t loc_b = arena.loc[b];
  const size_t d = tree_->num_dims_;
  if (arena.owner[a] == arena.owner[b]) {  // Same base: loc bits decide.
    for (size_t j = 0; j < d; ++j) {
      if (((loc_b >> j) & 1) != ((loc_a >> j) & 1) + offset[j]) return false;
    }
    return true;
  }
  const uint64_t* base_a = tree_->BaseOf(arena.owner[a]);
  const uint64_t* base_b = tree_->BaseOf(arena.owner[b]);
  for (size_t j = 0; j < d; ++j) {
    if (base_b[j] * 2 + ((loc_b >> j) & 1) !=
        base_a[j] * 2 + ((loc_a >> j) & 1) + offset[j]) {
      return false;
    }
  }
  return true;
}

size_t CountingTree::NumCellsAtLevel(int h) const {
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return arenas_[static_cast<size_t>(h)].size();
}

uint32_t CountingTree::Count(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].n[ref.index];
}

uint64_t CountingTree::Loc(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].loc[ref.index];
}

int32_t CountingTree::Child(CellRef ref) const {
  return arenas_[static_cast<size_t>(ref.level)].child[ref.index];
}

uint32_t CountingTree::HalfCount(CellRef ref, size_t axis) const {
  MRCC_DCHECK_LT(axis, num_dims_);
  return arenas_[static_cast<size_t>(ref.level)]
      .half[ref.index * num_dims_ + axis];
}

std::vector<uint64_t> CountingTree::CellCoords(CellRef ref) const {
  return Level(ref.level).Coords(ref.index);
}

bool CountingTree::FindCell(int level, const std::vector<uint64_t>& coords,
                            CellRef* ref) const {
  MRCC_DCHECK_GE(level, 1);
  MRCC_DCHECK_LT(level, num_resolutions_);
  MRCC_DCHECK_EQ(coords.size(), num_dims_);
  uint32_t node_idx = 0;
  for (int l = 1; l <= level; ++l) {
    // Position bits of the level-l ancestor inside its parent.
    uint64_t loc = 0;
    const int shift = level - l;
    for (size_t j = 0; j < num_dims_; ++j) {
      loc |= ((coords[j] >> shift) & 1) << j;
    }
    const Node& node = nodes_[node_idx];
    const int64_t cell_idx = FindInNode(node, loc);
    if (cell_idx < 0) return false;
    if (l == level) {
      ref->level = level;
      ref->index = static_cast<uint32_t>(cell_idx);
      return true;
    }
    const int32_t child =
        arenas_[static_cast<size_t>(l)].child[static_cast<size_t>(cell_idx)];
    if (child < 0) return false;
    node_idx = static_cast<uint32_t>(child);
  }
  return false;  // Unreachable.
}

bool CountingTree::FaceNeighbor(int level,
                                const std::vector<uint64_t>& coords,
                                size_t axis, int dir, CellRef* ref) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  MRCC_DCHECK_LT(axis, num_dims_);
  const uint64_t max_coord = (uint64_t{1} << level) - 1;
  if (dir < 0 && coords[axis] == 0) return false;
  if (dir > 0 && coords[axis] == max_coord) return false;
  std::vector<uint64_t> neighbor = coords;
  neighbor[axis] += static_cast<uint64_t>(dir);
  return FindCell(level, neighbor, ref);
}

uint32_t CountingTree::FaceNeighborCount(int level,
                                         const std::vector<uint64_t>& coords,
                                         size_t axis, int dir) const {
  CellRef ref;
  return FaceNeighbor(level, coords, axis, dir, &ref) ? Count(ref) : 0;
}

Status CountingTree::DropDeepestLevel() {
  // Checked before the tree changes: an unsealed tree's cells are not all
  // in its arenas, and its pending run holds keys of the current H.
  if (!sealed()) {
    return Status::InvalidArgument(
        "cannot drop a level of an unsealed tree: call Seal() first");
  }
  if (num_resolutions_ <= 3) {
    return Status::InvalidArgument(
        "cannot drop below the paper's minimum of H = 3 resolutions");
  }
  // The levels above the deepest are, cell for cell, the tree of the same
  // stream at H - 1, and its ranked key order reads only them. So the
  // deepest level is freed first, never held next to the key order; the
  // new deepest level's cells are ranked by arena index, as any deepest
  // level's are (see RankedKeyOrder), and the layout writes the H - 1
  // bytes.
  arenas_.pop_back();
  --num_resolutions_;
  LayOutPending(nullptr);
  return Status::OK();
}

Status CountingTree::ValidateInvariants() const {
  const auto fail = [](std::string msg) {
    return Status::Internal("tree invariant violated: " + std::move(msg));
  };
  const size_t d = num_dims_;
  if (d == 0 || d > kMaxDims) return fail("dimensionality out of range");
  if (num_resolutions_ < 3) return fail("fewer than 3 resolutions");
  if (nodes_.empty()) return fail("no root node");
  if (pending_ != nullptr) return fail("tree is not laid out");
  if (arenas_.size() != static_cast<size_t>(num_resolutions_)) {
    return fail("arena vector has wrong resolution count");
  }

  if (base_.size() != nodes_.size() * d) {
    return fail("base coordinates are not d words per node");
  }
  const Node& root = nodes_[0];
  if (root.level != 1) return fail("root node is not at level 1");
  for (size_t j = 0; j < d; ++j) {
    if (base_[j] != 0) return fail("root base coordinates are not zero");
  }

  // Arena array-size agreement. Message prefixes are built on the failure
  // path only: this walk runs on every tree load, and the passing case
  // must not allocate per level, node or cell.
  const auto level_where = [](int h) {
    return "level " + std::to_string(h) + ": ";
  };
  for (int h = 1; h < num_resolutions_; ++h) {
    const Arena& arena = arenas_[static_cast<size_t>(h)];
    const size_t n_cells = arena.loc.size();
    if (arena.n.size() != n_cells || arena.child.size() != n_cells ||
        arena.owner.size() != n_cells || arena.half.size() != n_cells * d) {
      return fail(level_where(h) + "arena arrays disagree on cell count");
    }
  }

  // parent_refs[m]: number of cells pointing at node m as their child.
  // tiled[h]: cells of level h the nodes before m cover. A level's nodes,
  // in pool order, must tile its arena contiguously — that is the
  // canonical enumeration order everything downstream relies on.
  std::vector<uint32_t> parent_refs(nodes_.size(), 0);
  std::vector<size_t> tiled(static_cast<size_t>(num_resolutions_), 0);
  uint64_t root_points = 0;
  SiblingLocSet locs;
  for (size_t m = 0; m < nodes_.size(); ++m) {
    const Node& node = nodes_[m];
    const auto where = [m] { return "node " + std::to_string(m) + ": "; };
    if (node.level < 1 || node.level >= num_resolutions_) {
      return fail(where() + "level " + std::to_string(node.level) +
                  " out of range");
    }
    const uint64_t* base = BaseOf(static_cast<uint32_t>(m));
    const uint64_t max_base = uint64_t{1} << (node.level - 1);
    for (size_t j = 0; j < d; ++j) {
      if (base[j] >= max_base) {
        return fail(where() + "base coordinate out of range");
      }
    }
    const Arena& arena = arenas_[static_cast<size_t>(node.level)];
    size_t& cursor = tiled[static_cast<size_t>(node.level)];
    if (node.first != cursor) {
      return fail(where() + "slice does not start where the level's " +
                  "previous slice ended");
    }
    cursor += node.count;
    if (cursor > arena.size()) {
      return fail(where() + "cell slice exceeds the level arena");
    }
    locs.Reset(node.count);
    for (uint32_t c = 0; c < node.count; ++c) {
      const uint32_t i = node.first + c;
      const auto cell_where = [&where, c] {
        return where() + "cell " + std::to_string(c) + ": ";
      };
      if (arena.owner[i] != m) {
        return fail(cell_where() + "arena owner points at node " +
                    std::to_string(arena.owner[i]));
      }
      const uint64_t loc = arena.loc[i];
      if (d < 64 && (loc >> d) != 0) {
        return fail(cell_where() + "loc has bits above dimension " +
                    std::to_string(d));
      }
      if (!locs.Insert(loc)) {
        return fail(cell_where() + "duplicate loc among siblings");
      }
      const uint32_t n = arena.n[i];
      if (n == 0) return fail(cell_where() + "materialized cell is empty");
      for (size_t j = 0; j < d; ++j) {
        if (arena.half[i * d + j] > n) {
          return fail(cell_where() + "half-space count " +
                      std::to_string(arena.half[i * d + j]) +
                      " exceeds cell count " + std::to_string(n) +
                      " on axis " + std::to_string(j));
        }
      }
      const int32_t child_node = arena.child[i];
      if (child_node < 0 && node.level + 1 < num_resolutions_) {
        return fail(cell_where() + "no child node above the deepest level");
      }
      if (child_node >= 0) {
        const auto child_idx = static_cast<size_t>(child_node);
        if (child_idx >= nodes_.size()) {
          return fail(cell_where() + "dangling child pointer");
        }
        if (child_idx == 0) return fail(cell_where() + "root used as child");
        // Creation order: a cell's child node is created after the cell,
        // so after the cell's own node. RankedKeyOrder relies on it.
        if (child_idx <= m) {
          return fail(cell_where() + "child node " +
                      std::to_string(child_idx) +
                      " is not after its parent's node");
        }
        const Node& child = nodes_[child_idx];
        if (child.level != node.level + 1) {
          return fail(cell_where() + "child level is not parent level + 1");
        }
        const uint64_t* child_base = BaseOf(static_cast<uint32_t>(child_idx));
        bool coords_match = true;
        for (size_t j = 0; coords_match && j < d; ++j) {
          coords_match = child_base[j] == base[j] * 2 + ((loc >> j) & 1);
        }
        if (!coords_match) {
          return fail(cell_where() + "child base coordinates do not match");
        }
        const Arena& child_arena =
            arenas_[static_cast<size_t>(child.level)];
        const uint64_t child_sum =
            simd::SumU32(child_arena.n.data() + child.first, child.count);
        if (child_sum != n) {
          return fail(cell_where() + "child counts sum to " +
                      std::to_string(child_sum) + ", expected " +
                      std::to_string(n));
        }
        parent_refs[child_idx] += 1;
      }
      if (m == 0) root_points += n;
    }
  }
  for (size_t m = 1; m < nodes_.size(); ++m) {
    if (parent_refs[m] != 1) {
      return fail("node " + std::to_string(m) + " referenced by " +
                  std::to_string(parent_refs[m]) + " parent cells");
    }
  }
  for (int h = 1; h < num_resolutions_; ++h) {
    const size_t cells = arenas_[static_cast<size_t>(h)].size();
    if (tiled[static_cast<size_t>(h)] != cells) {
      return fail(level_where(h) + "node slices cover " +
                  std::to_string(tiled[static_cast<size_t>(h)]) +
                  " cells, arena holds " + std::to_string(cells));
    }
  }
  if (root_points != total_points_) {
    return fail("root counts sum to " + std::to_string(root_points) +
                ", total_points is " + std::to_string(total_points_));
  }

  return Status::OK();
}

size_t CountingTree::MemoryBytes() const {
  size_t bytes = sizeof(*this) + nodes_.size() * sizeof(Node) +
                 base_.size() * sizeof(uint64_t) +
                 run_.capacity() * sizeof(uint64_t);
  if (pending_ != nullptr) bytes += pending_->MemoryBytes(num_dims_);
  for (const Arena& arena : arenas_) {
    bytes += arena.loc.capacity() * sizeof(uint64_t);
    bytes += arena.n.capacity() * sizeof(uint32_t);
    bytes += arena.child.capacity() * sizeof(int32_t);
    bytes += arena.owner.capacity() * sizeof(uint32_t);
    bytes += arena.half.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mrcc

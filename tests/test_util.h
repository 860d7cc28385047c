// Shared helpers for the test suite.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fs.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/generator.h"

namespace mrcc::testing {

/// A dataset from an explicit list of points (row-major initializer).
inline Dataset MakeDataset(const std::vector<std::vector<double>>& points) {
  Dataset d;
  for (const auto& p : points) d.AppendPoint(p);
  return d;
}

/// Uniform random dataset in [0,1)^dims.
inline Dataset UniformDataset(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Dataset d(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) d(i, j) = rng.UniformDouble();
  }
  return d;
}

/// A quick planted-cluster dataset: `k` Gaussian subspace clusters plus
/// noise; small enough for unit tests. Cluster dimensionality is kept
/// near d (as in the paper's data) so the clusters are statistically
/// detectable at test-sized point counts.
inline LabeledDataset SmallClustered(size_t n = 4000, size_t dims = 8,
                                     size_t k = 3, uint64_t seed = 7,
                                     double noise = 0.15) {
  SyntheticConfig cfg;
  cfg.name = "test";
  cfg.num_points = n;
  cfg.num_dims = dims;
  cfg.num_clusters = k;
  cfg.noise_fraction = noise;
  cfg.min_cluster_dims = dims > 3 ? dims - 3 : 1;
  cfg.max_cluster_dims = dims > 1 ? dims - 1 : 1;
  cfg.seed = seed;
  Result<LabeledDataset> r = GenerateSynthetic(cfg);
  MRCC_CHECK(r.ok());  // Test fixture: a generator failure is a test bug.
  return std::move(r).value();
}

/// A scratch path under ::testing::TempDir() that names the running test
/// (suite + test) and process, so tests that ctest runs concurrently
/// never share a file or directory.
inline std::string UniqueTempPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->test_suite_name() + "_" +
         info->name() + "_" + std::to_string(::getpid());
}

/// A shard artifact as format version 1 wrote it: `tree_bytes` (a
/// SerializeTree stream), then a 48-byte footer — magic "MRSH", u32
/// version 1, u64 begin, end, point count and tree length, and an
/// FNV-1a checksum over everything before it.
inline std::string VersionOneShardArtifact(const std::string& tree_bytes,
                                           uint64_t begin, uint64_t end) {
  std::string bytes = tree_bytes + "MRSH";
  const auto append = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append(uint32_t{1});
  append(begin);
  append(end);
  append(end - begin);
  append(static_cast<uint64_t>(tree_bytes.size()));
  append(Fnv1a(bytes.data(), bytes.size()));
  return bytes;
}

/// Re-stamps a shard artifact's tree length and checksum (the last 16
/// bytes of the 64-byte footer, see dist/shard_io.h) to match the bytes
/// in front of them, so a mutated artifact passes the footer and
/// checksum checks and reaches ParseTree and ValidateInvariants.
inline void RestampShardArtifact(std::string* bytes) {
  constexpr size_t kFooterBytes = 64;
  if (bytes->size() < kFooterBytes) return;
  const uint64_t tree_len = bytes->size() - kFooterBytes;
  std::memcpy(bytes->data() + bytes->size() - 16, &tree_len,
              sizeof(tree_len));
  const uint64_t sum =
      WordChecksum(bytes->data(), bytes->size() - sizeof(sum));
  std::memcpy(bytes->data() + bytes->size() - 8, &sum, sizeof(sum));
}

}  // namespace mrcc::testing

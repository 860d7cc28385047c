// Demonstrates the two extensions built on top of the paper:
//   1. Out-of-core clustering — the dataset lives in a binary file behind
//      the DataSource API and is scanned twice (tree build + labeling)
//      with O(tree) memory, each scan sharded across worker threads.
//   2. Soft membership (the Halite follow-up's headline feature): per
//      point membership degrees over the correlation clusters, with
//      entropy highlighting borderline points.
//
//   ./examples/streaming_soft [num_points] [threads]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/memory.h"
#include "core/mrcc.h"
#include "core/soft_membership.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/generator.h"

int main(int argc, char** argv) {
  mrcc::SyntheticConfig config;
  config.num_points = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50000;
  config.num_dims = 12;
  config.num_clusters = 6;
  config.noise_fraction = 0.15;
  config.min_cluster_dims = 9;
  config.max_cluster_dims = 11;
  config.seed = 99;

  mrcc::Result<mrcc::LabeledDataset> dataset =
      mrcc::GenerateSynthetic(config);
  if (!dataset.ok()) return 1;
  const std::string path = "/tmp/mrcc_streaming_demo.bin";
  if (!mrcc::SaveBinary(dataset->data, path).ok()) return 1;
  std::printf("wrote %zu x %zu points (%zu KB on disk) to %s\n",
              config.num_points, config.num_dims,
              config.num_points * config.num_dims * 8 / 1024, path.c_str());

  // Out-of-core run through the unified DataSource entry point: only the
  // tree and the labels are in memory, and both file scans are sharded
  // across the configured worker threads.
  mrcc::MrCCParams params;
  params.num_threads = argc > 2 ? std::atoi(argv[2]) : 0;
  mrcc::MemoryUsageScope memory;
  mrcc::Result<mrcc::ChunkedBinaryDataSource> source =
      mrcc::ChunkedBinaryDataSource::Open(path);
  if (!source.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }
  mrcc::Result<mrcc::MrCCResult> result = mrcc::MrCC(params).Run(*source);
  if (!result.ok()) {
    std::fprintf(stderr, "streaming run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "streamed MrCC: %zu clusters in %.3f s on %d threads, peak heap "
      "%.1f KB (tree %.1f KB) — the %zu KB of raw points never loaded\n",
      result->clustering.NumClusters(), result->stats.total_seconds,
      result->stats.num_threads,
      static_cast<double>(memory.PeakDeltaBytes()) / 1024.0,
      static_cast<double>(result->stats.tree_memory_bytes) / 1024.0,
      config.num_points * config.num_dims * 8 / 1024);

  // Soft membership over the (in-memory) data for analysis.
  mrcc::Result<mrcc::SoftClustering> soft =
      mrcc::ComputeSoftMembership(*result, dataset->data);
  if (!soft.ok()) return 1;

  size_t crisp = 0, borderline = 0, noise = 0;
  double max_entropy = 0.0;
  size_t max_entropy_point = 0;
  for (size_t i = 0; i < soft->num_points(); ++i) {
    double total = 0.0;
    for (size_t c = 0; c < soft->num_clusters(); ++c) {
      total += soft->membership(i, c);
    }
    if (total == 0.0) {
      ++noise;
      continue;
    }
    const double h = soft->Entropy(i);
    if (h < 0.1) {
      ++crisp;
    } else {
      ++borderline;
    }
    if (h > max_entropy) {
      max_entropy = h;
      max_entropy_point = i;
    }
  }
  std::printf(
      "soft membership: %zu crisp points, %zu borderline, %zu noise\n",
      crisp, borderline, noise);
  std::printf("most ambiguous point #%zu (entropy %.3f):", max_entropy_point,
              max_entropy);
  for (size_t c = 0; c < soft->num_clusters(); ++c) {
    const double m = soft->membership(max_entropy_point, c);
    if (m > 0.01) std::printf("  c%zu=%.2f", c, m);
  }
  std::printf("\n");
  std::remove(path.c_str());
  return 0;
}

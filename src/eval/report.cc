#include "eval/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <vector>

#include "common/failpoint.h"
#include "common/fs.h"
#include "eval/analysis.h"

namespace mrcc {
namespace {

// Okabe-Ito-ish categorical palette, colorblind-safe, cycled by label.
const char* kPalette[] = {"#0072b2", "#d55e00", "#009e73", "#cc79a7",
                          "#e69f00", "#56b4e9", "#f0e442", "#8c510a",
                          "#7570b3", "#66a61e", "#e7298a", "#1b9e77"};
constexpr size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);
constexpr const char* kNoiseColor = "#c8c8c8";

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

std::string RenderProjectionSvg(const Dataset& data,
                                const Clustering& clustering, size_t axis_x,
                                size_t axis_y, const MrCCResult* result,
                                const ReportOptions& options) {
  const int size = options.panel_size;
  const double scale = static_cast<double>(size);
  std::string svg;
  Appendf(&svg,
          "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
          "height=\"%d\" viewBox=\"0 0 %d %d\">",
          size, size + 18, size, size + 18);
  Appendf(&svg,
          "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"#ffffff\" "
          "stroke=\"#999\"/>",
          size, size);

  // Deterministic stride subsample.
  const size_t n = data.NumPoints();
  const size_t stride = std::max<size_t>(1, n / options.max_points);
  // Noise first so cluster points draw on top.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; i += stride) {
      const int label = clustering.labels[i];
      if ((pass == 0) != (label == kNoiseLabel)) continue;
      const double x = data(i, axis_x) * scale;
      const double y = (1.0 - data(i, axis_y)) * scale;  // Flip y for SVG.
      const char* color =
          label == kNoiseLabel
              ? kNoiseColor
              : kPalette[static_cast<size_t>(label) % kPaletteSize];
      Appendf(&svg, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"1.6\" fill=\"%s\"/>",
              x, y, color);
    }
  }

  if (result != nullptr && options.draw_boxes) {
    for (size_t b = 0; b < result->beta_clusters.size(); ++b) {
      const BetaCluster& beta = result->beta_clusters[b];
      // Only draw boxes bounded in at least one of the two shown axes.
      if (!beta.relevant[axis_x] && !beta.relevant[axis_y]) continue;
      const double x0 = beta.lower[axis_x] * scale;
      const double x1 = beta.upper[axis_x] * scale;
      const double y0 = (1.0 - beta.upper[axis_y]) * scale;
      const double y1 = (1.0 - beta.lower[axis_y]) * scale;
      const int cluster = result->beta_to_cluster[b];
      Appendf(&svg,
              "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
              "fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" "
              "stroke-dasharray=\"4 2\"/>",
              x0, y0, x1 - x0, y1 - y0,
              kPalette[static_cast<size_t>(cluster) % kPaletteSize]);
    }
  }

  Appendf(&svg,
          "<text x=\"4\" y=\"%d\" font-size=\"12\" font-family=\"sans-serif\" "
          "fill=\"#333\">e%zu vs e%zu</text></svg>",
          size + 14, axis_x + 1, axis_y + 1);
  return svg;
}

std::string RenderRunReportHtml(const Dataset& data, const MrCCResult& result,
                                const std::string& title,
                                const ReportOptions& options) {
  const Clustering& clustering = result.clustering;
  std::string html =
      "<!doctype html><html><head><meta charset=\"utf-8\"><title>" + title +
      "</title><style>body{font-family:sans-serif;margin:24px;color:#222}"
      "table{border-collapse:collapse;margin:12px 0}"
      "td,th{border:1px solid #bbb;padding:4px 10px;text-align:right}"
      "th{background:#f2f2f2}.panels{display:flex;flex-wrap:wrap;gap:12px}"
      "</style></head><body>";
  html += "<h1>" + title + "</h1>";

  Appendf(&html,
          "<p>%zu points × %zu axes → <b>%zu correlation clusters</b> "
          "(%zu β-clusters, %zu noise points) in %.3f s "
          "(tree %.3f s, search %.3f s; tree memory %.1f KB).</p>",
          data.NumPoints(), data.NumDims(), clustering.NumClusters(),
          result.beta_clusters.size(), clustering.NumNoisePoints(),
          result.stats.total_seconds, result.stats.tree_build_seconds,
          result.stats.beta_search_seconds,
          static_cast<double>(result.stats.tree_memory_bytes) / 1024.0);
  Appendf(&html,
          "<p>engine: %d threads (tree build %d; β-search %d; labeling "
          "%d).</p>",
          result.stats.num_threads, result.stats.tree_build_threads,
          result.stats.beta_search_threads, result.stats.labeling_threads);
  Appendf(&html,
          "<p>work: %llu cells convolved, %llu binomial tests over %llu "
          "candidates (%llu accepted); %llu merge conflicts, shard "
          "imbalance %.2f.</p>",
          static_cast<unsigned long long>(
              result.stats.beta_search.cells_convolved),
          static_cast<unsigned long long>(
              result.stats.beta_search.binomial_tests),
          static_cast<unsigned long long>(
              result.stats.beta_search.candidates_tested),
          static_cast<unsigned long long>(result.stats.beta_search.accepted),
          static_cast<unsigned long long>(
              result.stats.tree_merge.cells_merged),
          result.stats.shard_imbalance);
  if (result.stats.degraded) {
    html += "<p><b>degraded run</b> (H = " +
            std::to_string(result.stats.effective_resolutions) + "):</p><ul>";
    for (const std::string& reason : result.stats.degradation_reasons) {
      html += "<li>" + reason + "</li>";
    }
    html += "</ul>";
  }
  if (result.stats.chunks_scanned > 0) {
    Appendf(&html,
            "<p>streaming: %llu chunks of up to %llu points scanned "
            "(&le; %llu points resident at once; read-ahead depth %llu, "
            "%llu consumer stalls, %llu full-ring waits).</p>",
            static_cast<unsigned long long>(result.stats.chunks_scanned),
            static_cast<unsigned long long>(result.stats.chunk_points),
            static_cast<unsigned long long>(
                result.stats.resident_point_bound),
            static_cast<unsigned long long>(result.stats.read_ahead_chunks),
            static_cast<unsigned long long>(result.stats.prefetch_stalls),
            static_cast<unsigned long long>(
                result.stats.prefetch_queue_full_waits));
  }
  if (result.stats.points_skipped > 0 || result.stats.points_clamped > 0) {
    Appendf(&html,
            "<p>input hygiene: %llu points skipped, %llu clamped into "
            "[0,1).</p>",
            static_cast<unsigned long long>(result.stats.points_skipped),
            static_cast<unsigned long long>(result.stats.points_clamped));
  }

  // Per-cluster table.
  const auto summaries = SummarizeClusters(data, clustering);
  html +=
      "<table><tr><th>cluster</th><th>points</th><th>dims</th>"
      "<th>relevant axes</th><th>avg spread</th></tr>";
  for (size_t c = 0; c < summaries.size(); ++c) {
    std::string axes;
    for (size_t j = 0; j < data.NumDims(); ++j) {
      if (clustering.clusters[c].relevant_axes[j]) {
        axes += (axes.empty() ? "e" : ", e") + std::to_string(j + 1);
      }
    }
    Appendf(&html,
            "<tr><td style=\"color:%s\">&#9632; %zu</td><td>%zu</td>"
            "<td>%zu</td><td style=\"text-align:left\">%s</td>"
            "<td>%.4f</td></tr>",
            kPalette[c % kPaletteSize], c, summaries[c].size,
            summaries[c].dimensionality, axes.c_str(),
            summaries[c].mean_relevant_spread);
  }
  html += "</table>";

  // Pick the axis pairs that are relevant to the most clusters.
  std::map<std::pair<size_t, size_t>, size_t> pair_votes;
  for (const ClusterInfo& info : clustering.clusters) {
    for (size_t a = 0; a < data.NumDims(); ++a) {
      if (!info.relevant_axes[a]) continue;
      for (size_t b = a + 1; b < data.NumDims(); ++b) {
        if (info.relevant_axes[b]) ++pair_votes[{a, b}];
      }
    }
  }
  std::vector<std::pair<size_t, std::pair<size_t, size_t>>> ranked;
  for (const auto& [pair, votes] : pair_votes) ranked.push_back({votes, pair});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (ranked.empty() && data.NumDims() >= 2) {
    ranked.push_back({0, {0, 1}});
  }

  html += "<div class=\"panels\">";
  for (size_t p = 0; p < ranked.size() && p < options.max_panels; ++p) {
    html += RenderProjectionSvg(data, clustering, ranked[p].second.first,
                                ranked[p].second.second, &result, options);
  }
  html += "</div></body></html>";
  return html;
}

Status WriteRunReport(const Dataset& data, const MrCCResult& result,
                      const std::string& title, const std::string& path,
                      const ReportOptions& options) {
  MRCC_RETURN_IF_ERROR(fp::Maybe("report.write"));
  // Atomic publish, like every artifact writer (common/fs.h): a watcher
  // refreshing the report mid-write must never see half an HTML page.
  return WriteFileAtomic(path, RenderRunReportHtml(data, result, title,
                                                   options));
}

}  // namespace mrcc

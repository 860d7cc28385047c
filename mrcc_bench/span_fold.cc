#include "span_fold.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/json.h"

namespace mrcc::bench {
namespace {

struct Event {
  std::string name;
  int64_t tid = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t child_us = 0;  // Summed durations of direct children.
  int parent = -1;       // Index into the thread's event list.
};

double Seconds(int64_t micros) { return static_cast<double>(micros) * 1e-6; }

}  // namespace

double TraceFold::Total(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

double TraceFold::Max(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.max_s;
}

std::string LayerOf(const std::string& span_name) {
  static const std::map<std::string, std::string> kLayers = {
      {"bench.open", "data"},
      {"source.scan_chunk", "data"},
      {"source.prefetch", "data"},
      {"tree.build", "tree"},
      {"tree.build.shard", "tree"},
      {"tree.merge", "tree"},
      {"shard.build", "tree"},
      {"bench.build_shard", "tree"},
      {"bench.merge_tree", "tree"},
      {"beta.search", "beta"},
      {"beta.convolve", "beta"},
      {"beta.argmax", "beta"},
      {"beta.test", "beta"},
      {"bench.beta_search", "beta"},
      {"cluster.merge_betas", "cluster"},
      {"cluster.label_points", "cluster"},
      {"bench.merge_betas", "cluster"},
      {"bench.label_points", "cluster"},
      {"bench.push_chunk", "stream"},
      {"bench.prepare_manifest", "dist"},
      {"bench.write_artifact", "dist"},
      {"bench.read_artifact", "dist"},
  };
  const auto it = kLayers.find(span_name);
  return it == kLayers.end() ? "control" : it->second;
}

Result<TraceFold> FoldTrace(const std::string& chrome_json,
                            const std::string& root) {
  Result<JsonValue> doc = ParseJson(chrome_json);
  if (!doc.ok()) return doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("trace has no traceEvents array");
  }

  std::map<int64_t, std::vector<Event>> threads;
  for (const JsonValue& e : events->array) {
    Event event;
    event.name = JsonStringOr(e.Find("name"), "");
    event.tid = static_cast<int64_t>(JsonNumberOr(e.Find("tid"), 0));
    event.start_us = static_cast<int64_t>(JsonNumberOr(e.Find("ts"), 0));
    event.end_us =
        event.start_us + static_cast<int64_t>(JsonNumberOr(e.Find("dur"), 0));
    threads[event.tid].push_back(std::move(event));
  }

  TraceFold fold;
  const Event* root_event = nullptr;
  const std::vector<Event>* root_thread = nullptr;
  for (auto& [tid, list] : threads) {
    // Parents sort before their children: earlier start first, and on a
    // tie the longer span first.
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      if (a.start_us != b.start_us) return a.start_us < b.start_us;
      return a.end_us > b.end_us;
    });
    std::vector<int> open;
    for (size_t i = 0; i < list.size(); ++i) {
      Event& event = list[i];
      while (!open.empty() &&
             list[static_cast<size_t>(open.back())].end_us < event.end_us) {
        open.pop_back();
      }
      if (!open.empty()) {
        event.parent = open.back();
        list[static_cast<size_t>(event.parent)].child_us +=
            event.end_us - event.start_us;
      }
      open.push_back(static_cast<int>(i));
    }
    for (const Event& event : list) {
      SpanTotals& totals = fold.spans[event.name];
      const double dur = Seconds(event.end_us - event.start_us);
      ++totals.count;
      totals.total_s += dur;
      totals.self_s += dur - Seconds(event.child_us);
      totals.max_s = std::max(totals.max_s, dur);
      if (event.name == root) {
        if (root_event != nullptr) {
          return Status::InvalidArgument("trace has more than one " + root +
                                         " span");
        }
        root_event = &event;
        root_thread = &list;
      }
    }
  }
  if (root_event == nullptr) {
    return Status::InvalidArgument("trace has no " + root + " span");
  }

  fold.wall_s = Seconds(root_event->end_us - root_event->start_us);
  const std::vector<Event>& list = *root_thread;
  double covered = 0.0;
  for (const Event& event : list) {
    const std::string layer = LayerOf(event.name);
    if (layer == "control") continue;
    bool top_level = false;
    for (int p = event.parent; p >= 0;
         p = list[static_cast<size_t>(p)].parent) {
      const Event& ancestor = list[static_cast<size_t>(p)];
      if (&ancestor == root_event) {
        top_level = true;
        break;
      }
      if (LayerOf(ancestor.name) != "control") break;
    }
    if (!top_level) continue;
    const double dur = Seconds(event.end_us - event.start_us);
    fold.top_level_s[layer] += dur;
    covered += dur;
  }
  fold.coverage = fold.wall_s > 0.0 ? covered / fold.wall_s : 0.0;
  return fold;
}

}  // namespace mrcc::bench

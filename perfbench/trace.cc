// In-memory span recorder for the traced run.

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "perfbench.h"
#include "server/json.h"

namespace muve::perfbench {

int64_t NanosSince(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Millis(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

int64_t Tracer::Add(std::string name, int64_t parent, int64_t request,
                    int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id, int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, Layer> layers;
  for (const Span& s : spans_) {
    // Covered = the union of the child intervals, clipped to this span.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    Layer& layer = layers[s.name];
    ++layer.count;
    layer.total_ms += Millis(s.end_ns - s.start_ns);
    layer.self_ms += Millis(s.end_ns - s.start_ns - covered);
  }
  return layers;
}

common::Status Tracer::WriteJson(const std::string& path) const {
  JsonValue layers = JsonValue::Object();
  for (const auto& [name, layer] : Layers()) {
    JsonValue l = JsonValue::Object();
    l.Set("count", JsonValue::Int(layer.count));
    l.Set("total_ms", JsonValue::Double(layer.total_ms));
    l.Set("self_ms", JsonValue::Double(layer.self_ms));
    layers.Set(name, std::move(l));
  }
  JsonValue spans = JsonValue::Array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::Object();
      j.Set("id", JsonValue::Int(s.id));
      j.Set("parent", JsonValue::Int(s.parent));
      j.Set("request", JsonValue::Int(s.request));
      j.Set("name", JsonValue::String(s.name));
      j.Set("start_ns", JsonValue::Int(s.start_ns));
      j.Set("end_ns", JsonValue::Int(s.end_ns));
      spans.Append(std::move(j));
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("layers", std::move(layers));
  doc.Set("spans", std::move(spans));
  std::ofstream out(path);
  out << doc.Write() << "\n";
  if (!out) return common::Status::IoError("cannot write " + path);
  return common::Status::OK();
}

}  // namespace muve::perfbench

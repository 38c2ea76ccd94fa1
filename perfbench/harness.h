// Shared pieces of the benchmark driver: clocks, in-memory spans, sample
// summaries, the result line, and the independent answer check.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/memgraph.h"

namespace perfbench {

using relgraph::Edge;
using relgraph::EdgeList;
using relgraph::node_id_t;
using relgraph::weight_t;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// splitmix64: derives independent sub-seeds (graph, queries, mutations)
// from the one seed the command line gives.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over generated inputs; the determinism check compares it across
// seeds to show that a seed really changes what the program receives.
class Fingerprint {
 public:
  void Add(int64_t v) {
    for (int i = 0; i < 8; i++) {
      h_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddEdges(const EdgeList& list) {
    Add(list.num_nodes);
    for (const Edge& e : list.edges) {
      Add(e.from);
      Add(e.to);
      Add(e.weight);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Spans kept in memory and written out when the run ends. A span's layer
// is its name up to the first '.', so "core.find" belongs to `core`.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Returns the span id, or -1 when tracing is off.
  int Begin(const char* name, int64_t op) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  void Attr(int id, const char* key, double value) {
    if (id >= 0) spans_[id].attrs.emplace_back(key, value);
  }

  // Self time per layer: each span's duration minus what its children
  // cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::string layer(s.name);
      layer = layer.substr(0, layer.find('.'));
      out[layer] += (s.end_ns - s.start_ns - child_ns[i]) / 1e9;
    }
    return out;
  }

  void WriteSpans(std::FILE* f) const {
    std::fprintf(f, "\"span_fields\": [\"name\", \"start_us\", \"end_us\", "
                    "\"parent\", \"op\", \"attrs\"],\n\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f, "[\"%s\", %.3f, %.3f, %d, %lld, {", s.name,
                   s.start_ns / 1e3, s.end_ns / 1e3, s.parent,
                   static_cast<long long>(s.op));
      for (size_t a = 0; a < s.attrs.size(); a++) {
        std::fprintf(f, "%s\"%s\": %.17g", a == 0 ? "" : ", ",
                     s.attrs[a].first, s.attrs[a].second);
      }
      std::fprintf(f, "}]%s\n", i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]");
  }

 private:
  struct Span {
    const char* name = "";
    int64_t op = -1;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<std::pair<const char*, double>> attrs;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op = -1)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const char* key, double value) { tracer_->Attr(id_, key, value); }

 private:
  Tracer* tracer_;
  int id_;
};

// Latency samples of one operation type, in milliseconds.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  size_t size() const { return v_.size(); }
  double Sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }
  // Nearest-rank percentile.
  double Percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * s.size()));
    return s[std::clamp<size_t>(rank, 1, s.size()) - 1];
  }

 private:
  std::vector<double> v_;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline void PrintJsonMetrics(std::FILE* f, const std::vector<Metric>& ms) {
  std::fprintf(f, "{");
  for (size_t i = 0; i < ms.size(); i++) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                 ms[i].unit.c_str());
  }
  std::fprintf(f, "}");
}

// The benchmark's own copy of the current graph, apart from the program:
// an edge list it mutates in step with the program, a pair -> weights map
// for checking each hop, and a MemGraph Dijkstra rebuilt from the edge list
// whenever it changed since the last check.
class Oracle {
 public:
  explicit Oracle(EdgeList list) : list_(std::move(list)) {
    for (const Edge& e : list_.edges) weights_[Key(e.from, e.to)].push_back(e.weight);
  }

  const EdgeList& list() const { return list_; }

  void Add(const Edge& e) {
    list_.edges.push_back(e);
    weights_[Key(e.from, e.to)].push_back(e.weight);
    mem_.reset();
  }

  // Removes the edge at `index` of list().
  void RemoveAt(size_t index) {
    Edge e = list_.edges[index];
    list_.edges[index] = list_.edges.back();
    list_.edges.pop_back();
    std::vector<weight_t>& ws = weights_[Key(e.from, e.to)];
    ws.erase(std::find(ws.begin(), ws.end(), e.weight));
    if (ws.empty()) weights_.erase(Key(e.from, e.to));
    mem_.reset();
  }

  relgraph::MemPathResult Dijkstra(node_id_t s, node_id_t t) {
    if (mem_ == nullptr) mem_ = std::make_unique<relgraph::MemGraph>(list_);
    return mem_->Dijkstra(s, t);
  }

  // Empty when the answer agrees with the oracle; otherwise why not.
  // `path` may be null for distance-only answers.
  std::string Check(node_id_t s, node_id_t t, bool found, weight_t distance,
                    const std::vector<node_id_t>* path) {
    relgraph::MemPathResult want = Dijkstra(s, t);
    if (found != want.found) {
      return found ? "found a path the oracle says is unreachable"
                   : "reported unreachable, oracle found a path";
    }
    if (!found) return "";
    if (distance != want.distance) {
      return "distance " + std::to_string(distance) + " != oracle " +
             std::to_string(want.distance);
    }
    if (path == nullptr) return "";
    if (path->empty() || path->front() != s || path->back() != t) {
      return "path does not run from s to t";
    }
    weight_t length = 0;
    for (size_t i = 0; i + 1 < path->size(); i++) {
      auto it = weights_.find(Key((*path)[i], (*path)[i + 1]));
      if (it == weights_.end()) return "path hop is not an edge";
      length += *std::min_element(it->second.begin(), it->second.end());
    }
    if (length != distance) return "path length differs from its distance";
    return "";
  }

 private:
  static uint64_t Key(node_id_t u, node_id_t v) {
    return (static_cast<uint64_t>(u) << 32) ^ static_cast<uint64_t>(v);
  }

  EdgeList list_;
  std::unordered_map<uint64_t, std::vector<weight_t>> weights_;
  std::unique_ptr<relgraph::MemGraph> mem_;
};

}  // namespace perfbench

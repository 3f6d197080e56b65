// Span recorder for the survey benchmark's traced runs.
//
// survey_bench wraps every layer call it makes in a Span. A span has
// a name (the layer, e.g. "dedisp.sweep"), a start and end on one steady
// clock, a parent and the id of the job (one benchmark repetition) it
// belongs to. Spans are kept in memory and written as a Chrome trace when
// the run exits. With tracing off a Span costs one branch.
//
// Self time. A layer's self time is the wall time during which one of its
// spans was the innermost open span. Spans on different threads can be open
// at once (cross-validation folds run on pool threads), so at every instant
// the wall clock is split evenly between the innermost open spans, and an
// open span whose descendant is also open gets nothing. Summed over all
// layers this reproduces the job's wall time exactly; the share left on the
// job's root span is glue code that no layer claims.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRec {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 = no parent
  int job = 0;
  std::size_t tid = 0;
  double t0 = 0.0;  ///< seconds since the trace origin
  double t1 = 0.0;
};

class SpanTrace {
 public:
  SpanTrace() : origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }
  /// Spans opened from now on belong to job `job`.
  void set_job(int job) { job_ = job; }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a span; `parent` < 0 selects the calling thread's innermost span.
  int open(const std::string& name, int parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRec rec;
    rec.name = name;
    rec.id = static_cast<int>(spans_.size());
    rec.parent = parent >= 0 ? parent : current();
    rec.job = job_;
    rec.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    rec.t0 = now();
    rec.t1 = rec.t0;
    spans_.push_back(rec);
    return rec.id;
  }

  void close(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].t1 = now();
  }

  /// Records an already-finished span (used for spans read back from the
  /// library's own tracer).
  void add(const std::string& name, int parent, double t0, double t1,
           std::size_t tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRec rec{name, static_cast<int>(spans_.size()), parent, job_, tid, t0,
                t1};
    spans_.push_back(rec);
  }

  std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// The calling thread's innermost open span, or -1.
  static int& current() {
    thread_local int id = -1;
    return id;
  }

  /// Per-name self time of every span under `root` (root included), split as
  /// described at the top of this file.
  std::map<std::string, double> self_times(int root) const;

  /// Writes all spans as Chrome trace_event JSON ("X" complete events).
  void write_chrome(const std::string& path,
                    const std::string& metadata_json) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  int job_ = 0;
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
};

/// RAII span; inert when the trace is disabled.
class Span {
 public:
  Span(SpanTrace& trace, const std::string& name, int parent = -1)
      : trace_(trace.enabled() ? &trace : nullptr) {
    if (!trace_) return;
    id_ = trace_->open(name, parent);
    saved_ = SpanTrace::current();
    SpanTrace::current() = id_;
  }
  ~Span() {
    if (!trace_) return;
    trace_->close(id_);
    SpanTrace::current() = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SpanTrace* trace_;
  int id_ = -1;
  int saved_ = -1;
};

inline std::map<std::string, double> SpanTrace::self_times(int root) const {
  const std::vector<SpanRec> all = spans();
  // Keep the spans under `root`.
  std::vector<const SpanRec*> mine;
  std::unordered_map<int, const SpanRec*> by_id;
  for (const SpanRec& s : all) by_id[s.id] = &s;
  const auto under_root = [&](const SpanRec& s) {
    for (int id = s.id; id >= 0;) {
      if (id == root) return true;
      const auto it = by_id.find(id);
      if (it == by_id.end()) return false;
      id = it->second->parent;
    }
    return false;
  };
  for (const SpanRec& s : all) {
    if (under_root(s)) mine.push_back(&s);
  }
  const auto is_ancestor = [&](int anc, const SpanRec* s) {
    for (int id = s->parent; id >= 0;) {
      if (id == anc) return true;
      id = by_id.at(id)->parent;
    }
    return false;
  };
  std::vector<double> edges;
  for (const SpanRec* s : mine) {
    edges.push_back(s->t0);
    edges.push_back(s->t1);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::map<std::string, double> self;
  for (const SpanRec* s : mine) self.emplace(s->name, 0.0);
  std::vector<const SpanRec*> open, leaves;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const double a = edges[i], b = edges[i + 1];
    open.clear();
    for (const SpanRec* s : mine) {
      if (s->t0 <= a && s->t1 >= b) open.push_back(s);
    }
    leaves.clear();
    for (const SpanRec* s : open) {
      bool has_open_child = false;
      for (const SpanRec* o : open) {
        if (o != s && is_ancestor(s->id, o)) {
          has_open_child = true;
          break;
        }
      }
      if (!has_open_child) leaves.push_back(s);
    }
    for (const SpanRec* s : leaves) {
      self[s->name] += (b - a) / static_cast<double>(leaves.size());
    }
  }
  return self;
}

inline void SpanTrace::write_chrome(const std::string& path,
                                    const std::string& metadata_json) const {
  std::ofstream out(path);
  out << "{\"metadata\":" << metadata_json << ",\"traceEvents\":[";
  std::map<std::size_t, int> lanes;
  bool first = true;
  for (const SpanRec& s : spans()) {
    const int lane =
        lanes.emplace(s.tid, static_cast<int>(lanes.size()) + 1).first->second;
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane
        << ",\"ts\":" << static_cast<std::int64_t>(s.t0 * 1e6)
        << ",\"dur\":" << static_cast<std::int64_t>((s.t1 - s.t0) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench

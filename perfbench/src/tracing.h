// Span recorder of the traced run. Every call the benchmark makes into a
// layer's public functions is wrapped in a Span; spans are kept in memory
// (one vector, no locking: the load generator is one thread) and written
// out as Chrome trace_event JSON when the run ends. With tracing off a
// Span is one null-pointer test.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    const char* layer = "";
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index of the enclosing span, -1 at top level
    uint32_t request = 0; // query / investigation / protocol-op id
  };

  /// The active log, or nullptr when tracing is off.
  static SpanLog* Active() { return active_; }
  static void SetActive(SpanLog* log) { active_ = log; }

  int32_t Begin(const char* layer, const char* name) {
    Record r;
    r.layer = layer;
    r.name = name;
    r.parent = open_;
    r.request = request_;
    records_.push_back(r);
    open_ = static_cast<int32_t>(records_.size() - 1);
    records_.back().start_ns = NowNs();
    return open_;
  }
  void End(int32_t index) {
    Record& r = records_[static_cast<size_t>(index)];
    r.end_ns = NowNs();
    open_ = r.parent;
  }
  /// Tags the spans that follow with a request id.
  void SetRequest(uint32_t id) { request_ = id; }

  const std::vector<Record>& records() const { return records_; }

  /// Durations (microseconds) of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Summed duration (seconds) of spans with this name.
  double TotalS(const std::string& name) const;
  /// Summed self time (seconds) of spans with this name: their duration
  /// less that of their child spans (calls the benchmark made from inside
  /// them, such as its own DepGraph::MaxHop walk in on_update).
  double SelfS(const std::string& name) const;
  /// Per layer: total and self time (seconds); self excludes the part of
  /// a span covered by its child spans.
  struct LayerTime {
    double total_s = 0;
    double self_s = 0;
    uint64_t spans = 0;
  };
  std::vector<std::pair<std::string, LayerTime>> ByLayer() const;

  /// Chrome trace_event JSON ("X" complete events, one pid/tid).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static SpanLog* active_;
  std::vector<Record> records_;
  int32_t open_ = -1;
  uint32_t request_ = 0;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(const char* layer, const char* name) : log_(SpanLog::Active()) {
    if (log_ != nullptr) index_ = log_->Begin(layer, name);
  }
  ~Span() {
    if (log_ != nullptr) log_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_

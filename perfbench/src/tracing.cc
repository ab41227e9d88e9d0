#include "tracing.h"

#include <fstream>
#include <map>

namespace perfbench {

SpanLog* SpanLog::active_ = nullptr;

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) out.push_back(NsToUs(r.end_ns - r.start_ns));
  }
  return out;
}

double SpanLog::TotalS(const std::string& name) const {
  int64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.end_ns - r.start_ns;
  }
  return NsToS(ns);
}

double SpanLog::SelfS(const std::string& name) const {
  int64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.end_ns - r.start_ns;
    if (r.parent >= 0 &&
        name == records_[static_cast<size_t>(r.parent)].name) {
      ns -= r.end_ns - r.start_ns;
    }
  }
  return NsToS(ns);
}

std::vector<std::pair<std::string, SpanLog::LayerTime>> SpanLog::ByLayer()
    const {
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, LayerTime> by;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    LayerTime& t = by[r.layer];
    t.total_s += NsToS(r.end_ns - r.start_ns);
    t.self_s += NsToS(r.end_ns - r.start_ns - child_ns[i]);
    t.spans++;
  }
  return {by.begin(), by.end()};
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  f << "{\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i != 0) f << ",\n";
    f << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"" << r.layer
      << "\",\"name\":\"" << r.name << "\",\"ts\":"
      << (r.start_ns - origin) / 1000.0
      << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000.0
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
      << ",\"request\":" << r.request << "}}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

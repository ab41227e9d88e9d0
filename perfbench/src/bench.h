// Shared plumbing of the wall-clock benchmark: command-line arguments,
// wall timers, sample statistics, the result record every workload fills,
// the independent correctness-check ledger, and program-counter deltas.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>
#include <sys/types.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the span dump and the
  /// temporary WAL directories.
  std::string work_dir = ".bench_build/work";
  /// Path of the aptrace_shardd binary built beside the benchmark.
  std::string shardd_bin;
};

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Set once at the top of main(): the origin of setup_wall_s.
extern int64_t g_process_start_ns;

/// CPU seconds (user + system, every thread) this process has used since
/// it started. setup_s reads it when set-up ends: the set-up's wall time
/// also counts the time the process waited for a CPU, which other tenants
/// of the machine decide (README, end-to-end metrics).
inline double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU seconds a child process has used so far (utime + stime of
/// /proc/<pid>/stat, every thread); 0 when it cannot be read.
double ChildCpuS(pid_t pid);

/// Timed rounds of a run: `per_second` rounds for each second of
/// --seconds, at least `min_rounds`. The count depends on the arguments
/// alone, so every build does the same work over the same state; the
/// rates are set so that a run takes about --seconds on the reference
/// machine (README "Runs").
inline int TimedRounds(const Args& args, double per_second, int min_rounds) {
  return std::max(min_rounds,
                  static_cast<int>(std::lround(args.seconds * per_second)));
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50);
}
inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}
inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Fastest round of per-operation timings. Every operation of a
/// workload runs once per round; its value is the fastest of its rounds.
/// The machine's speed drifts by some ten percent over tens of seconds
/// (other tenants share its caches and memory bandwidth); the fastest
/// round is the one least disturbed, and reads the same from run to run
/// far more closely than a mean or median. Workload metrics are taken
/// over those per-operation values. Sequences (one value per update batch
/// of a query) are aligned by position.
class PerOpBest {
 public:
  void NewRound() { rounds_.emplace_back(); }
  /// Records operation `op`'s sequence for the current round.
  void Set(size_t op, std::vector<double> values) {
    auto& round = rounds_.back();
    if (round.size() <= op) round.resize(op + 1);
    round[op] = std::move(values);
  }
  size_t rounds() const { return rounds_.size(); }
  /// Per (operation, position) minima over the rounds in which the
  /// position exists in every round, pooled.
  std::vector<double> Pooled() const {
    std::vector<double> out;
    if (rounds_.empty()) return out;
    size_t ops = rounds_[0].size();
    for (const auto& r : rounds_) ops = std::min(ops, r.size());
    for (size_t op = 0; op < ops; ++op) {
      size_t n = rounds_[0][op].size();
      for (const auto& r : rounds_) n = std::min(n, r[op].size());
      for (size_t j = 0; j < n; ++j) {
        double best = rounds_[0][op][j];
        for (const auto& r : rounds_) best = std::min(best, r[op][j]);
        out.push_back(best);
      }
    }
    return out;
  }

 private:
  std::vector<std::vector<std::vector<double>>> rounds_;
};

/// Peak resident set of this process, in MB.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Checks made apart from the program. Each named check records its
/// first failure; the run is correct only when every check passed.
class Checks {
 public:
  void Expect(bool ok, const std::string& check, const std::string& detail) {
    Entry& e = entries_[check];
    e.runs++;
    if (!ok) {
      e.failures++;
      if (e.first_failure.empty()) e.first_failure = detail;
    }
  }
  bool ok() const {
    for (const auto& [name, e] : entries_) {
      if (e.failures != 0) return false;
    }
    return true;
  }
  bool Failed(const std::string& check) const {
    const auto it = entries_.find(check);
    return it != entries_.end() && it->second.failures != 0;
  }
  /// One line per check on stderr.
  void Print(const char* prefix) const {
    for (const auto& [name, e] : entries_) {
      std::fprintf(stderr, "%scheck %-28s %s (%llu cases)%s%s\n", prefix,
                   name.c_str(), e.failures == 0 ? "pass" : "FAIL",
                   static_cast<unsigned long long>(e.runs),
                   e.first_failure.empty() ? "" : ": ",
                   e.first_failure.c_str());
    }
  }

 private:
  struct Entry {
    uint64_t runs = 0;
    uint64_t failures = 0;
    std::string first_failure;
  };
  std::map<std::string, Entry> entries_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main().
struct Result {
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Workload-specific figures printed in the report lines only.
  std::vector<Metric> extra;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddExtra(const std::string& name, double value,
                const std::string& unit) {
    extra.push_back({name, value, unit});
  }
};

/// Program counters and latency-histogram sums (seconds), summed over
/// the stretches of a run between Begin() and End(), so that untraced
/// work between the stretches is left out.
class CounterSums {
 public:
  CounterSums(const std::vector<const char*>& counters,
              const std::vector<const char*>& histograms = {}) {
    for (const char* name : counters) {
      auto* c = aptrace::obs::Metrics().FindOrCreateCounter(name);
      entries_.push_back(
          {name, [c] { return static_cast<double>(c->value()); }});
    }
    for (const char* name : histograms) {
      auto* h = aptrace::obs::Metrics().FindOrCreateHistogram(name);
      entries_.push_back({name, [h] { return h->sum(); }});
    }
  }
  void Begin() {
    for (Entry& e : entries_) e.base = e.read();
  }
  void End() {
    for (Entry& e : entries_) e.sum += e.read() - e.base;
  }
  double Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (name == e.name) return e.sum;
    }
    return 0;
  }

 private:
  struct Entry {
    const char* name;
    std::function<double()> read;
    double base = 0;
    double sum = 0;
  };
  std::vector<Entry> entries_;
};

/// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) {
  return den != 0 ? num / den : 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

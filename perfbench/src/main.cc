// Wall-clock benchmark driver. One process generates the load: it runs
// one workload against the library and daemon code in-process (plus a
// forked shard fleet for remote_shards), checks the answers apart from
// the program, and prints one JSON result line last.
//
//   aptrace_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--work-dir <dir>] [--shardd <bin>]
//   aptrace_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced pass and the tracing overhead. The names and units
// a run must report are BENCHMARK.json's; run.py checks the result
// against them.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

int64_t g_process_start_ns = 0;

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "aptrace_perfbench: %s\nusage: aptrace_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--shardd BIN]\n       aptrace_perfbench --self-test\n",
               msg);
  std::exit(2);  // NOLINT(concurrency-mt-unsafe): single-threaded start
}

std::string FormatValue(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  g_process_start_ns = NowNs();
  Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() != "0";
    } else if (a == "--work-dir") {
      args.work_dir = value();
    } else if (a == "--shardd") {
      args.shardd_bin = value();
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (self_test) return RunSelfTest(args);

  Result (*run)(const Args&) = nullptr;
  if (args.workload == "alert_triage") {
    run = RunAlertTriage;
  } else if (args.workload == "attack_refine") {
    run = RunAttackRefine;
  } else if (args.workload == "daemon_ingest") {
    run = RunDaemonIngest;
  } else if (args.workload == "remote_shards") {
    run = RunRemoteShards;
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  Result result;
  try {
    result = run(args);
    SpanLog::SetActive(nullptr);
  } catch (const std::exception& e) {
    SpanLog::SetActive(nullptr);
    // Unwinding ran every workload's destructors (shard fleet, data dir).
    std::fprintf(stderr, "aptrace_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  result.checks.Print("perfbench: ");
  const bool correct = result.checks.ok() && result.attempted > 0;
  std::printf("workload %s seed %llu trace %d: attempted %llu, failed %llu, "
              "correct %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              correct ? "yes" : "NO");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("  %-30s %16s %s\n", m.name.c_str(),
                FormatValue(m.value).c_str(), m.unit.c_str());
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + FormatValue(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const Metric& m : result.extra) {
    std::printf("  %-30s %16s %s   (report only)\n", m.name.c_str(),
                FormatValue(m.value).c_str(), m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

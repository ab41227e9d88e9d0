#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {

double ChildCpuS(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return 0;
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3 and utime, stime are fields 14 and 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 1));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double TimeCopySeal(const aptrace::EventStore& store) {
  aptrace::EventStore copy;
  for (aptrace::EventId id = 0; id < store.NumEvents(); ++id) {
    copy.Append(store.Get(id));
  }
  const int64_t t0 = NowNs();
  {
    Span span("storage", "EventStore::Seal");
    copy.Seal();
  }
  return NsToS(NowNs() - t0);
}

void WriteSpans(const SpanLog& log, const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::string path = args.work_dir + "/spans-" + args.workload + ".json";
  if (!log.WriteChromeTrace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
               log.records().size(), path.c_str());
  for (const auto& [layer, t] : log.ByLayer()) {
    std::fprintf(stderr,
                 "perfbench: layer %-9s spans %8llu total %9.4f s self "
                 "%9.4f s\n",
                 layer.c_str(), static_cast<unsigned long long>(t.spans),
                 t.total_s, t.self_s);
  }
}

}  // namespace perfbench

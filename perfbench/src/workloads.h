// The four workloads and the helpers they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"
#include "storage/event_store.h"
#include "tracing.h"

namespace perfbench {

Result RunAlertTriage(const Args& args);
Result RunAttackRefine(const Args& args);
Result RunDaemonIngest(const Args& args);
Result RunRemoteShards(const Args& args);

/// storage.seal_s: appends a copy of the store's rows (id order) to a
/// fresh in-process store of the default layout and times its Seal().
double TimeCopySeal(const aptrace::EventStore& store);

/// Writes the traced run's spans to <work_dir>/spans-<workload>.json and
/// prints the per-layer total/self times on stderr.
void WriteSpans(const SpanLog& log, const Args& args);

/// Corrupts one result per check and shows each check failing; returns
/// the process exit code (0 when every check caught its corruption).
int RunSelfTest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

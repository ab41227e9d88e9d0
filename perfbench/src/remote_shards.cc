// remote_shards: the alert_triage query method over a coordinator store
// whose shards live in two aptrace_shardd daemons, forked through
// dist::ShardFleet and reached through RemoteShardBackend with
// sequential fan-out. Graphs and simulated scan cost must equal the
// in-process store's with the same shard count.
#include <sched.h>

#include <memory>
#include <string>
#include <vector>

#include "dist/dist_error.h"
#include "dist/fleet.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "obs/names.h"
#include "triage.h"
#include "workload/enterprise.h"
#include "workloads.h"

namespace perfbench {

using aptrace::Event;
using aptrace::EventStore;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kAlerts = 10;
// A round of the 10 queries takes about 1 s on the reference machine.
constexpr double kRoundsPerSecond = 0.8;

/// A small trace: every window probe is an RPC, so the query set has to
/// be lighter than alert_triage's to fit a run.
aptrace::workload::TraceConfig RemoteTraceConfig() {
  aptrace::workload::TraceConfig config =
      aptrace::workload::TraceConfig::Small();
  config.seed = 42;
  return config;
}

/// Pins this process, and the shard daemons it forks afterwards, to the
/// CPU it runs on now. A probe's RPC then costs two context switches on
/// one CPU. Spread over CPUs it also waits for an idle virtual CPU to
/// wake up, which took the round trip from about 12 to about 40 us as
/// the host's load changed (README "Shard daemons on one CPU").
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("remote_shards: sched_setaffinity");
  }
}

}  // namespace

Result RunRemoteShards(const Args& args) {
  Result result;
  Checks& checks = result.checks;
  PinToCurrentCpu();
  SpanLog log;
  if (args.trace) SpanLog::SetActive(&log);  // set-up spans
  if (args.shardd_bin.empty()) {
    checks.Expect(false, "setup", "no shard daemon binary (--shardd)");
    return result;
  }
  aptrace::dist::FleetOptions fleet_options;
  fleet_options.shardd_bin = args.shardd_bin;
  fleet_options.shards = kShards;
  aptrace::Result<std::unique_ptr<aptrace::dist::ShardFleet>> fleet =
      aptrace::Status::Ok();
  {
    Span span("dist", "ShardFleet::Launch");
    fleet = aptrace::dist::ShardFleet::Launch(fleet_options);
  }
  if (!fleet.ok()) {
    checks.Expect(false, "setup", fleet.status().ToString());
    return result;
  }
  std::vector<aptrace::dist::ShardEndpoint> endpoints;
  for (const aptrace::dist::ShardProcess& p : fleet.value()->shards()) {
    auto ep = aptrace::dist::ParseShardEndpoint(p.endpoint);
    if (!ep.ok()) {
      checks.Expect(false, "setup", ep.status().ToString());
      return result;
    }
    endpoints.push_back(std::move(ep).value());
  }

  // The coordinator store: the generator appends through the remote
  // backends (batched shard.append RPCs), then seals every shard.
  aptrace::workload::TraceConfig config = RemoteTraceConfig();
  config.shards = kShards;
  config.store_tweak = [&endpoints](aptrace::EventStoreOptions& options) {
    options.dist_fanout_threads = 0;  // sequential fan-out
    options.shard_backend_factory =
        [&endpoints](size_t shard, const aptrace::EventStoreOptions& o)
        -> std::unique_ptr<aptrace::StorageBackend> {
      auto client = std::make_shared<aptrace::dist::ShardClient>(
          endpoints[shard], static_cast<uint32_t>(shard), o.backend);
      return std::make_unique<aptrace::dist::RemoteShardBackend>(
          std::move(client), o.backend, o.cost_model);
    };
  };
  const int64_t t_gen = NowNs();
  std::unique_ptr<EventStore> store;
  {
    Span span("workload", "BuildEnterpriseTrace");
    store = aptrace::workload::BuildEnterpriseTrace(config);
  }
  const double generate_s = NsToS(NowNs() - t_gen);
  const std::vector<Event> alerts = SampleAlerts(*store, kAlerts);
  aptrace::Rng order(args.seed);
  // The daemons loaded the shards, so their CPU time is set-up time too.
  double setup_s = ProcessCpuS();
  for (const aptrace::dist::ShardProcess& p : fleet.value()->shards()) {
    setup_s += ChildCpuS(p.pid);
  }
  const double setup_wall_s = NsToS(NowNs() - g_process_start_ns);
  SpanLog::SetActive(nullptr);
  std::fprintf(stderr,
               "remote_shards: %zu events on %zu shard daemons, %zu alerts, "
               "setup %.3f s CPU, %.3f s wall\n",
               store->NumEvents(), kShards, alerts.size(), setup_s,
               setup_wall_s);

  std::vector<TriageOutcome> outcomes;
  TriageSamples timed;
  RunTriageWorkload(*store, alerts, &order, args, kRoundsPerSecond,
                    "remote_shards", &result, &outcomes, &timed);
  if (!args.trace) {
    result.attempted = timed.queries + timed.failed;
    result.failed = timed.failed;
    result.Add("setup_s", setup_s, "s");
    result.AddExtra("setup_wall_s", setup_wall_s, "s");
    AddTriageMetrics(timed, &result);
    result.Add("peak_rss_mb", timed.peak_rss_mb, "MB");
  } else {
    SpanLog::SetActive(&log);
    TriageSamples s;
    RunTriagePass(*store, alerts, &order, &s, nullptr, &outcomes, &checks);
    const std::vector<Probe> probes = ProbeSet(outcomes, 2000);
    const std::vector<double> remote_us = TimeCollect(*store, probes, "dist");
    SpanLog::SetActive(nullptr);
    result.attempted = s.queries + s.failed;
    result.failed = s.failed;
    const double queries = static_cast<double>(s.queries);
    result.Add("obs.trace_overhead_ratio",
               Ratio(s.last_pass_query_s, timed.last_pass_query_s), "ratio");
    result.Add("workload.generate_s", generate_s, "s");
    AddStoreLayerMetrics(s.store, queries, &result);
    AddTriageLayerMetrics(s, log, &result);
    result.Add("dist.rpcs_per_probe",
               Ratio(s.counters.Get(aptrace::obs::names::kDistRpcs),
                     s.store.probes),
               "count");
    result.Add("dist.retries",
               s.counters.Get(aptrace::obs::names::kDistRetries), "count");
    result.Add("dist.collect_us_p50", Median(remote_us), "us");
    WriteSpans(log, args);
  }

  // Checks: the closure rules through the remote store; identity with
  // the in-process store of the same shard count (graphs and simulated
  // scan cost); and, for queries that completed, the same graph as the
  // monolithic store. (Sharding probes fewer storage units, so simulated
  // cost, and with it where the two-hour cap falls, differs from the
  // monolithic store by design.)
  CheckTriageOutcomes(*store, alerts, outcomes, &checks);
  aptrace::workload::TraceConfig sharded_config = RemoteTraceConfig();
  sharded_config.shards = kShards;
  aptrace::workload::TraceConfig local_config = RemoteTraceConfig();
  local_config.shards = 1;
  const std::unique_ptr<EventStore> sharded =
      aptrace::workload::BuildEnterpriseTrace(sharded_config);
  const std::unique_ptr<EventStore> local =
      aptrace::workload::BuildEnterpriseTrace(local_config);
  std::vector<TriageOutcome> sharded_outcomes;
  std::vector<TriageOutcome> local_outcomes;
  TriageSamples reference_samples;
  RunTriagePass(*sharded, alerts, nullptr, &reference_samples,
                &sharded_outcomes, nullptr, &checks);
  RunTriagePass(*local, alerts, nullptr, &reference_samples, &local_outcomes,
                nullptr, &checks);
  for (size_t i = 0; i < alerts.size(); ++i) {
    const TriageOutcome& r = outcomes[i];
    const TriageOutcome& sh = sharded_outcomes[i];
    const TriageOutcome& mono = local_outcomes[i];
    const std::string who = "alert " + std::to_string(alerts[i].id) + ": ";
    const std::string diff = CompareAcrossStores(r, sh);
    checks.Expect(diff.empty(), "same_as_inprocess_sharded", who + diff);
    if (r.reason == aptrace::StopReason::kCompleted &&
        mono.reason == aptrace::StopReason::kCompleted) {
      const std::string mono_diff = CompareGraphs(r.graph, mono.graph);
      checks.Expect(mono_diff.empty(), "completed_same_as_monolithic",
                    who + mono_diff);
    }
  }
  if (args.trace) {
    // storage.collect_us_p50 over the same probe set in-process.
    result.Add("storage.collect_us_p50",
               Median(TimeCollect(*local, ProbeSet(outcomes, 2000), "storage")),
               "us");
    result.Add("storage.seal_s", TimeCopySeal(*local), "s");
  }
  fleet.value()->Terminate();
  return result;
}

}  // namespace perfbench

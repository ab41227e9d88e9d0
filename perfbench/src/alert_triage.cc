// alert_triage: the paper's Table II method on the enterprise trace.
// Seeded alerts, each backtracked by the responsive engine through
// Session::StartWithSpec / Step with GenericSpecFor scripts, capped at two
// simulated hours, one query at a time on one thread.
#include <algorithm>
#include <string>

#include "obs/names.h"
#include "tracing.h"
#include "triage.h"
#include "util/rng.h"
#include "workload/enterprise.h"
#include "workloads.h"

namespace perfbench {

using aptrace::Event;
using aptrace::EventStore;
using aptrace::StopReason;

namespace {

/// Runs a query untimed up to its first update batch. Run for a fixed
/// partner before each timed query, it leaves the same cache state behind
/// whatever query ran before in the drawn order: without it a query's
/// first update took 6 to 80 us depending on its predecessor.
void WarmQueryStart(const EventStore& store, const Event& alert) {
  aptrace::SimClock clock;
  aptrace::SessionOptions options;
  options.scan_threads = 1;
  aptrace::Session session(&store, &clock, options);
  if (!session.StartWithSpec(aptrace::workload::GenericSpecFor(store, alert),
                             alert)
           .ok()) {
    return;
  }
  aptrace::RunLimits limits;
  limits.sim_time = kQueryCapMicros;
  limits.max_updates = 1;
  (void)session.Step(limits);
}

}  // namespace

bool RunTriageQuery(const EventStore& store, const Event& alert,
                    const Event& partner, size_t op, TriageSamples* samples,
                    TriageOutcome* keep, TriageOutcome* summary) {
  const bool traced = SpanLog::Active() != nullptr;
  {
    // Untraced in both passes, so the traced pass does the same work and
    // its spans and counters cover the query alone.
    SpanLog* log = SpanLog::Active();
    SpanLog::SetActive(nullptr);
    WarmQueryStart(store, partner);
    SpanLog::SetActive(log);
  }
  aptrace::StoreStats stats_before;
  if (traced) {
    samples->counters.Begin();
    stats_before = store.stats();
  }
  int64_t walk_ns = 0;
  const int64_t t_begin = NowNs();
  aptrace::bdl::TrackingSpec spec;
  {
    Span span("bdl", "GenericSpecFor/CompileBdl");
    spec = aptrace::workload::GenericSpecFor(store, alert);
  }
  aptrace::SimClock clock;
  aptrace::SessionOptions options;
  options.scan_threads = 1;
  aptrace::Session session(&store, &clock, options);
  const int64_t t_start = NowNs();
  aptrace::Status started = aptrace::Status::Ok();
  {
    Span span("core", "Session::StartWithSpec");
    started = session.StartWithSpec(std::move(spec), alert);
  }
  if (!started.ok()) {
    samples->failed++;
    return false;
  }
  int64_t last = 0;
  double first_update = -1;
  std::vector<double> gaps;
  aptrace::RunLimits limits;
  limits.sim_time = kQueryCapMicros;
  limits.on_update = [&](const aptrace::UpdateBatch&) {
    const int64_t now = NowNs();
    if (last == 0) {
      first_update = NsToMs(now - t_start);
    } else {
      gaps.push_back(NsToMs(now - last));
    }
    if (traced) {
      // The walk Session::RefreshSnapshot repeats for every batch, timed
      // on the live graph (traced run only). It is the benchmark's own
      // work: left out of core.step_s and of the traced query wall.
      {
        Span span("graph", "DepGraph::MaxHop");
        volatile int hop = session.graph().MaxHop();
        (void)hop;
      }
      walk_ns += NowNs() - now;
    }
    last = NowNs();
  };
  aptrace::Result<StopReason> reason = StopReason::kStopped;
  {
    Span span("core", "Session::Step");
    reason = session.Step(limits);
  }
  const int64_t t_end = NowNs();
  if (traced) {
    samples->counters.End();
    samples->store.Add(stats_before, store.stats());
  }
  if (!reason.ok()) {
    samples->failed++;
    return false;
  }
  samples->queries++;
  samples->query_ms.Set(op, {NsToMs(t_end - t_begin)});
  samples->last_pass_query_s += NsToS(t_end - t_begin - walk_ns);
  if (first_update >= 0) samples->first_update_ms.Set(op, {first_update});
  samples->gap_ms.Set(op, std::move(gaps));
  if (last == 0) samples->no_history++;
  if (reason.value() != StopReason::kCompleted) samples->capped++;
  const aptrace::DepGraph& graph = session.graph();
  samples->graph_nodes.push_back(static_cast<double>(graph.NumNodes()));
  samples->graph_edges.push_back(static_cast<double>(graph.NumEdges()));
  samples->windows += session.stats().work_units;
  samples->batches += session.update_log().size();

  TriageOutcome* out = keep != nullptr ? keep : summary;
  out->reason = reason.value();
  out->scan_cost = session.executor()->scan_cost_total();
  out->work_units = session.stats().work_units;
  out->ts = session.context().ts;
  out->te = session.context().te;
  if (keep != nullptr) {
    keep->graph = ExtractGraph(graph);
    keep->log = session.update_log().batches();
  } else {
    // Later rounds compare sizes only (cheap) against the first round.
    summary->graph.edges.resize(graph.NumEdges());
    summary->graph.nodes.resize(graph.NumNodes());
  }
  return true;
}

std::string CompareRepeat(const TriageOutcome& got, const TriageOutcome& ref) {
  if (got.reason != ref.reason) return "stop reason differs";
  if (got.graph.edges.size() != ref.graph.edges.size() ||
      got.graph.nodes.size() != ref.graph.nodes.size()) {
    return "graph size differs";
  }
  if (got.scan_cost != ref.scan_cost) return "simulated scan cost differs";
  if (got.work_units != ref.work_units) return "window count differs";
  return "";
}

std::string CompareAcrossStores(const TriageOutcome& got,
                                const TriageOutcome& ref) {
  if (got.reason != ref.reason) return "stop reason differs";
  if (got.scan_cost != ref.scan_cost) return "simulated scan cost differs";
  return CompareGraphs(got.graph, ref.graph);
}

void RunTriagePass(const EventStore& store, const std::vector<Event>& alerts,
                   aptrace::Rng* order, TriageSamples* samples,
                   std::vector<TriageOutcome>* keep,
                   const std::vector<TriageOutcome>* reference,
                   Checks* checks) {
  if (keep != nullptr) keep->assign(alerts.size(), TriageOutcome{});
  samples->query_ms.NewRound();
  samples->first_update_ms.NewRound();
  samples->gap_ms.NewRound();
  samples->last_pass_query_s = 0;
  std::vector<size_t> sequence(alerts.size());
  for (size_t i = 0; i < sequence.size(); ++i) sequence[i] = i;
  for (size_t i = sequence.size(); order != nullptr && i > 1; --i) {
    std::swap(sequence[i - 1], sequence[order->Uniform(i)]);
  }
  SpanLog* log = SpanLog::Active();
  for (const size_t i : sequence) {
    if (log != nullptr) log->SetRequest(static_cast<uint32_t>(i + 1));
    TriageOutcome summary;
    const bool ok = RunTriageQuery(
        store, alerts[i], alerts[(i + 1) % alerts.size()], i, samples,
        keep != nullptr ? &(*keep)[i] : nullptr, &summary);
    if (!ok || reference == nullptr) continue;
    const std::string diff = CompareRepeat(summary, (*reference)[i]);
    checks->Expect(diff.empty(), "repeat_identical",
                   "alert " + std::to_string(alerts[i].id) + ": " + diff);
  }
}

void CheckTriageOutcomes(const EventStore& store,
                         const std::vector<Event>& alerts,
                         const std::vector<TriageOutcome>& outcomes,
                         Checks* checks) {
  for (size_t i = 0; i < alerts.size() && i < outcomes.size(); ++i) {
    const TriageOutcome& o = outcomes[i];
    const std::string who = "alert " + std::to_string(alerts[i].id) + ": ";
    if (o.reason == StopReason::kCompleted) {
      const auto closure = BackwardClosure(store, alerts[i], store.MinTime(),
                                           store.MaxTime() + 1);
      const std::string diff = CompareWithClosure(o.graph, closure);
      checks->Expect(diff.empty(), "closure_equal", who + diff);
    } else {
      const std::string diff =
          CheckFollowsRule(store, o.graph, alerts[i], store.MinTime());
      checks->Expect(diff.empty(), "capped_subset", who + diff);
    }
    const std::string diff = CheckUpdateLog(o.log, o.graph, alerts[i]);
    checks->Expect(diff.empty(), "update_log_sums", who + diff);
  }
}

std::vector<Event> SampleAlerts(const EventStore& store, size_t n) {
  // Systematic sample over the events sorted by direct history (how many
  // events flowed into the event's source object before it): the alerts
  // span every history size, from none to the dependency-explosion hubs.
  // The sample is fixed and the seed only orders the queries, so every
  // seed asks for the same work; a seeded sample moved a run's cost by
  // about ten percent from seed to seed, through its few hub cases.
  const size_t events = store.NumEvents();
  std::vector<Event> out;
  if (events == 0 || n == 0) return out;
  std::vector<std::vector<aptrace::TimeMicros>> incoming(
      store.catalog().size());
  for (aptrace::EventId id = 0; id < events; ++id) {
    const Event e = store.Get(id);
    incoming[e.FlowDest()].push_back(e.timestamp);
  }
  for (auto& times : incoming) std::sort(times.begin(), times.end());
  std::vector<std::pair<size_t, aptrace::EventId>> by_history;
  by_history.reserve(events);
  for (aptrace::EventId id = 0; id < events; ++id) {
    const Event e = store.Get(id);
    const auto& times = incoming[e.FlowSource()];
    by_history.emplace_back(
        static_cast<size_t>(
            std::lower_bound(times.begin(), times.end(), e.timestamp) -
            times.begin()),
        id);
  }
  std::sort(by_history.begin(), by_history.end());
  const double step = static_cast<double>(events) / static_cast<double>(n);
  const double start = step / 2;
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = std::min(
        events - 1, static_cast<size_t>(start + static_cast<double>(i) * step));
    out.push_back(store.Get(by_history[pos].second));
  }
  return out;
}

void AddTriageMetrics(const TriageSamples& s, Result* out) {
  const std::vector<double> query_ms = s.query_ms.Pooled();
  const std::vector<double> gap_ms = s.gap_ms.Pooled();
  out->Add("queries_per_s",
           Ratio(static_cast<double>(query_ms.size()), Sum(query_ms) / 1000.0),
           "1/s");
  out->Add("first_update_ms_p50", Median(s.first_update_ms.Pooled()), "ms");
  out->Add("update_gap_ms_p50", Median(gap_ms), "ms");
  out->Add("update_gap_ms_p99", Percentile(gap_ms, 99), "ms");
  out->AddExtra("investigation_ms_p50", Median(query_ms), "ms");
  out->AddExtra("update_gaps", static_cast<double>(gap_ms.size()), "count");
}

std::vector<Probe> ProbeSet(const std::vector<TriageOutcome>& outcomes,
                            size_t max_probes) {
  std::vector<Probe> all;
  for (const TriageOutcome& o : outcomes) {
    for (const aptrace::ObjectId n : o.graph.nodes) {
      all.push_back({n, o.ts, o.te});
    }
  }
  if (all.size() <= max_probes) return all;
  // Deterministic even stride over the pooled node list.
  std::vector<Probe> out;
  out.reserve(max_probes);
  for (size_t i = 0; i < max_probes; ++i) {
    out.push_back(all[i * all.size() / max_probes]);
  }
  return out;
}

std::vector<double> TimeCollect(const EventStore& store,
                                const std::vector<Probe>& probes,
                                const char* layer) {
  std::vector<double> us;
  us.reserve(probes.size());
  for (const Probe& p : probes) {
    const int64_t t0 = NowNs();
    {
      Span span(layer, "EventStore::CollectDest");
      (void)store.CollectDest(p.node, p.ts, p.te);
    }
    us.push_back(NsToUs(NowNs() - t0));
  }
  return us;
}

void AddTriageLayerMetrics(const TriageSamples& s, const SpanLog& log,
                           Result* out) {
  const double queries = static_cast<double>(s.queries);
  out->Add("core.start_ms_p50",
           Median(log.DurationsUs("Session::StartWithSpec")) / 1000.0, "ms");
  out->Add("core.step_s", log.SelfS("Session::Step"), "s");
  out->Add("core.stale_windows",
           s.counters.Get(aptrace::obs::names::kExecutorStaleWindows),
           "count");
  out->Add("core.windows_per_query",
           Ratio(static_cast<double>(s.windows), queries), "count");
  out->Add("core.useful_window_ratio",
           Ratio(static_cast<double>(s.batches),
                 static_cast<double>(s.windows)),
           "ratio");
  out->Add("graph.max_hop_us_p50", Median(log.DurationsUs("DepGraph::MaxHop")),
           "us");
  out->Add("graph.max_hop_us_p99",
           Percentile(log.DurationsUs("DepGraph::MaxHop"), 99), "us");
  out->Add("graph.nodes_p50", Median(s.graph_nodes), "count");
  out->Add("graph.edges_per_query", Ratio(Sum(s.graph_edges), queries),
           "count");
  out->Add("bdl.compile_us_p50",
           Median(log.DurationsUs("GenericSpecFor/CompileBdl")), "us");
}

void AddStoreLayerMetrics(const StoreSums& sums, double queries, Result* out) {
  out->Add("storage.probes_per_query", Ratio(sums.probes, queries), "count");
  out->Add("storage.rows_per_probe", Ratio(sums.rows, sums.probes), "count");
  out->Add("storage.partitions_per_probe", Ratio(sums.partitions, sums.probes),
           "count");
}

std::vector<Event> WarmUpSubset(const std::vector<Event>& alerts) {
  std::vector<Event> out;
  for (size_t i = 0; i < alerts.size(); i += 10) out.push_back(alerts[i]);
  return out;
}

void RunTriageWorkload(const EventStore& store,
                       const std::vector<Event>& alerts, aptrace::Rng* order,
                       const Args& args, double rounds_per_second,
                       const char* name, Result* result,
                       std::vector<TriageOutcome>* outcomes,
                       TriageSamples* timed) {
  {
    // Warm-up: every tenth alert, untimed.
    TriageSamples warm;
    RunTriagePass(store, WarmUpSubset(alerts), order, &warm, nullptr,
                  nullptr, &result->checks);
  }
  // The first timed round keeps every outcome for the checks; later
  // rounds must repeat it.
  const int64_t t0 = NowNs();
  RunTriagePass(store, alerts, order, timed, outcomes, nullptr,
                &result->checks);
  timed->peak_rss_mb = PeakRssMb();
  const int rounds = args.trace ? 1 : TimedRounds(args, rounds_per_second, 3);
  for (int r = 1; r < rounds; ++r) {
    RunTriagePass(store, alerts, order, timed, nullptr, outcomes,
                  &result->checks);
  }
  std::vector<double> capped_nodes;
  for (const TriageOutcome& o : *outcomes) {
    if (o.reason != StopReason::kCompleted) {
      capped_nodes.push_back(static_cast<double>(o.graph.nodes.size()));
    }
  }
  std::fprintf(stderr,
               "%s: %d timed round(s) of %zu queries (%llu capped, %llu "
               "without history per round), %.3f s; capped graphs: median "
               "%.0f, largest %.0f nodes\n",
               name, rounds, alerts.size(),
               static_cast<unsigned long long>(timed->capped / rounds),
               static_cast<unsigned long long>(timed->no_history / rounds),
               NsToS(NowNs() - t0), Median(capped_nodes), Max(capped_nodes));
}

// ---------------------------------------------------------------------

namespace {

/// The enterprise trace of the workload: 8 hosts x 10 days. The
/// generator seed is fixed, so the deployment is the same on every run;
/// --seed chooses the alerts.
aptrace::workload::TraceConfig TriageTraceConfig() {
  aptrace::workload::TraceConfig config;
  config.num_hosts = 8;
  config.days = 10;
  config.seed = 42;
  return config;
}

constexpr size_t kAlerts = 50;
// A round of the 50 queries takes about 1.2 s on the reference machine.
constexpr double kRoundsPerSecond = 0.8;

}  // namespace

Result RunAlertTriage(const Args& args) {
  Result result;
  SpanLog log;
  if (args.trace) SpanLog::SetActive(&log);  // set-up spans
  const int64_t t_gen = NowNs();
  std::unique_ptr<EventStore> store;
  {
    Span span("workload", "BuildEnterpriseTrace");
    store = aptrace::workload::BuildEnterpriseTrace(TriageTraceConfig());
  }
  const double generate_s = NsToS(NowNs() - t_gen);
  const std::vector<Event> alerts = SampleAlerts(*store, kAlerts);
  aptrace::Rng order(args.seed);
  const double setup_s = ProcessCpuS();
  const double setup_wall_s = NsToS(NowNs() - g_process_start_ns);
  SpanLog::SetActive(nullptr);
  std::fprintf(stderr,
               "alert_triage: %zu events, %zu objects, %zu alerts, setup "
               "%.3f s CPU, %.3f s wall\n",
               store->NumEvents(), store->catalog().size(), alerts.size(),
               setup_s, setup_wall_s);

  std::vector<TriageOutcome> outcomes;
  TriageSamples timed;
  RunTriageWorkload(*store, alerts, &order, args, kRoundsPerSecond,
                    "alert_triage", &result, &outcomes, &timed);
  if (!args.trace) {
    result.attempted = timed.queries + timed.failed;
    result.failed = timed.failed;
    result.Add("setup_s", setup_s, "s");
    result.AddExtra("setup_wall_s", setup_wall_s, "s");
    AddTriageMetrics(timed, &result);
    result.Add("peak_rss_mb", timed.peak_rss_mb, "MB");
  } else {
    // The same round again with the span log on.
    SpanLog::SetActive(&log);
    TriageSamples s;
    RunTriagePass(*store, alerts, &order, &s, nullptr, &outcomes,
                  &result.checks);
    result.attempted = s.queries + s.failed;
    result.failed = s.failed;
    result.Add("obs.trace_overhead_ratio",
               Ratio(s.last_pass_query_s, timed.last_pass_query_s), "ratio");
    result.Add("workload.generate_s", generate_s, "s");
    AddStoreLayerMetrics(s.store, static_cast<double>(s.queries), &result);
    AddTriageLayerMetrics(s, log, &result);
    result.Add("storage.collect_us_p50",
               Median(TimeCollect(*store, ProbeSet(outcomes, 20000),
                                  "storage")),
               "us");
    result.Add("storage.seal_s", TimeCopySeal(*store), "s");
    SpanLog::SetActive(nullptr);
    WriteSpans(log, args);
  }
  CheckTriageOutcomes(*store, alerts, outcomes, &result.checks);
  return result;
}

}  // namespace perfbench

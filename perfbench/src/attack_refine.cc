// attack_refine: the five Table I attack cases (BuildAttackCase), each
// replayed as the paper's interactive loop: v1 peek, UpdateScript to
// v2..vn, a hunt until ChainRecovered, then Finish and the canonical graph
// JSON. Rounds over the five cases repeat over stores built once in
// set-up; one investigation at a time on one thread.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bdl/analyzer.h"
#include "core/engine.h"
#include "graph/json_writer.h"
#include "obs/names.h"
#include "triage.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace perfbench {

using aptrace::StopReason;
using aptrace::workload::AttackScenario;
using aptrace::workload::BuiltCase;

namespace {

// A round of the five investigations takes about 26 ms on the reference
// machine.
constexpr double kRoundsPerSecond = 38;

/// Timings per round and per case (PerOpBest); counts summed.
struct RefineSamples {
  PerOpBest investigation_ms;
  PerOpBest first_update_ms;  // Start(v1) -> first batch
  PerOpBest gap_ms;           // between batches inside a Step
  PerOpBest refine_ms;        // UpdateScript -> next batch, per refine
  double total_s = 0;            // summed investigation wall
  double walk_s = 0;             // the benchmark's own MaxHop walks (traced)
  std::vector<double> graph_nodes;
  std::vector<double> graph_edges;
  uint64_t investigations = 0;
  uint64_t failed = 0;
  uint64_t windows = 0;
  uint64_t batches = 0;
};

/// What one investigation must reproduce on every round.
struct CaseOutcome {
  std::string graph_json;
  bool recovered_before_finish = false;
  GraphRec graph;  // after Finish
  aptrace::TimeMicros ts = 0;
  aptrace::TimeMicros te = 0;
};

/// Runs one case loop. Returns false when the program reported an error.
bool RunInvestigation(const BuiltCase& built, size_t op,
                      RefineSamples* samples, CaseOutcome* out) {
  const AttackScenario& scenario = built.scenario;
  const aptrace::EventStore& store = *built.store;
  const bool traced = SpanLog::Active() != nullptr;
  aptrace::SimClock clock;
  aptrace::SessionOptions options;
  options.scan_threads = 1;
  aptrace::Session session(&store, &clock, options);

  const int64_t t_begin = NowNs();
  aptrace::Status st = aptrace::Status::Ok();
  {
    Span span("core", "Session::Start");
    st = session.Start(scenario.bdl_scripts[0]);
  }
  if (!st.ok()) {
    samples->failed++;
    return false;
  }
  // Wall instants of the batches of the current Step, and where the
  // current step's first batch should be charged.
  int64_t last = 0;
  int64_t step_origin = t_begin;
  std::vector<double> first_update;
  std::vector<double> refine;
  std::vector<double> gaps;
  std::vector<double>* first_sink = &first_update;
  const auto on_update = [&](const aptrace::UpdateBatch&) {
    const int64_t now = NowNs();
    if (first_sink != nullptr) {
      first_sink->push_back(NsToMs(now - step_origin));
      first_sink = nullptr;
    } else if (last != 0) {
      gaps.push_back(NsToMs(now - last));
    }
    if (traced) {
      // The benchmark's own walk: left out of core.step_s and of the
      // traced wall (obs.trace_overhead_ratio).
      {
        Span span("graph", "DepGraph::MaxHop");
        volatile int hop = session.graph().MaxHop();
        (void)hop;
      }
      samples->walk_s += NsToS(NowNs() - now);
    }
    last = NowNs();
  };
  const auto found = [&] {
    Span span("workload", "ChainRecovered");
    return aptrace::workload::ChainRecovered(session.graph(), scenario);
  };
  const auto step = [&](aptrace::RunLimits limits) {
    limits.should_stop = found;
    limits.on_update = on_update;
    last = 0;
    Span span("core", "Session::Step");
    return session.Step(limits);
  };

  // v1: peek at the first updates (Section IV-D: "after viewing two
  // events in less than three minutes").
  aptrace::RunLimits peek;
  peek.max_updates = 5;
  peek.sim_time = 3 * aptrace::kMicrosPerMinute;
  if (!step(peek).ok()) {
    samples->failed++;
    return false;
  }
  for (size_t v = 1; v < scenario.bdl_scripts.size() && !found(); ++v) {
    const int64_t t_refine = NowNs();
    {
      Span span("core", "Session::UpdateScript");
      st = session.UpdateScript(scenario.bdl_scripts[v]);
    }
    if (!st.ok()) {
      samples->failed++;
      return false;
    }
    step_origin = t_refine;
    first_sink = &refine;
    aptrace::RunLimits limits;
    if (v + 1 < scenario.bdl_scripts.size()) {
      // Between refinements the analyst watches a couple of minutes of
      // updates before writing the next heuristic.
      limits.max_updates = 10;
      limits.sim_time = 2 * aptrace::kMicrosPerMinute;
    }
    if (!step(limits).ok()) {
      samples->failed++;
      return false;
    }
  }
  out->recovered_before_finish = found();
  {
    Span span("core", "Session::Finish");
    st = session.Finish();
  }
  if (!st.ok()) {
    samples->failed++;
    return false;
  }
  std::ostringstream json;
  {
    Span span("graph", "WriteGraphJson");
    aptrace::WriteGraphJson(session.graph(), store.catalog(), json);
  }
  const int64_t t_end = NowNs();
  samples->investigations++;
  samples->investigation_ms.Set(op, {NsToMs(t_end - t_begin)});
  samples->first_update_ms.Set(op, std::move(first_update));
  samples->refine_ms.Set(op, std::move(refine));
  samples->gap_ms.Set(op, std::move(gaps));
  samples->total_s += NsToS(t_end - t_begin);
  samples->graph_nodes.push_back(
      static_cast<double>(session.graph().NumNodes()));
  samples->graph_edges.push_back(
      static_cast<double>(session.graph().NumEdges()));
  samples->windows += session.stats().work_units;
  samples->batches += session.update_log().size();
  out->graph_json = json.str();
  out->graph = ExtractGraph(session.graph());
  out->ts = session.context().ts;
  out->te = session.context().te;
  return true;
}

/// One round over every case; round 0 fills `reference`, later rounds
/// must reproduce its graphs byte for byte.
void RunRound(const std::vector<BuiltCase>& cases, aptrace::Rng* rng,
              RefineSamples* samples, std::vector<CaseOutcome>* reference,
              bool first, Checks* checks) {
  samples->investigation_ms.NewRound();
  samples->first_update_ms.NewRound();
  samples->refine_ms.NewRound();
  samples->gap_ms.NewRound();
  std::vector<size_t> order(cases.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  for (const size_t i : order) {
    if (SpanLog* log = SpanLog::Active(); log != nullptr) {
      log->SetRequest(static_cast<uint32_t>(i + 1));
    }
    CaseOutcome out;
    if (!RunInvestigation(cases[i], i, samples, &out)) continue;
    const AttackScenario& scenario = cases[i].scenario;
    checks->Expect(out.recovered_before_finish, "chain_recovered",
                   scenario.name + ": ChainRecovered false before Finish");
    const std::string truth = CheckGroundTruth(scenario, out.graph);
    checks->Expect(truth.empty(), "penetration_point",
                   scenario.name + ": " + truth);
    if (first) {
      (*reference)[i] = std::move(out);
    } else {
      const std::string diff =
          CompareServed(out.graph_json, "", (*reference)[i].graph_json, "");
      checks->Expect(diff.empty(), "repeat_identical",
                     scenario.name + ": " + diff);
    }
  }
}

}  // namespace

Result RunAttackRefine(const Args& args) {
  Result result;
  SpanLog log;
  if (args.trace) SpanLog::SetActive(&log);  // set-up spans
  const int64_t t_gen = NowNs();
  std::vector<BuiltCase> cases;
  for (const std::string& name : aptrace::workload::AttackCaseNames()) {
    // The cases' background noise keeps the generator's default seed:
    // the staged attacks are the fixed part of this workload and --seed
    // orders the investigations of each round.
    aptrace::workload::TraceConfig config;
    Span span("workload", "BuildAttackCase");
    auto built = aptrace::workload::BuildAttackCase(name, config);
    if (!built.ok()) {
      result.checks.Expect(false, "build_case",
                           name + ": " + built.status().ToString());
      return result;
    }
    cases.push_back(std::move(built).value());
  }
  const double generate_s = NsToS(NowNs() - t_gen);
  const double setup_s = ProcessCpuS();
  const double setup_wall_s = NsToS(NowNs() - g_process_start_ns);
  SpanLog::SetActive(nullptr);
  size_t events = 0;
  for (const BuiltCase& c : cases) events += c.store->NumEvents();
  std::fprintf(stderr,
               "attack_refine: %zu cases, %zu events, setup %.3f s CPU, "
               "%.3f s wall\n",
               cases.size(), events, setup_s, setup_wall_s);

  aptrace::Rng rng(args.seed);
  std::vector<CaseOutcome> reference(cases.size());
  {
    RefineSamples warm;
    RunRound(cases, &rng, &warm, &reference, /*first=*/true, &result.checks);
  }
  RefineSamples timed;
  double peak_rss_mb = 0;
  // With --trace 1 half the rounds run untraced, then as many traced.
  const int rounds = TimedRounds(args, args.trace ? kRoundsPerSecond / 2
                                                  : kRoundsPerSecond, 1);
  for (int r = 0; r < rounds; ++r) {
    RunRound(cases, &rng, &timed, &reference, /*first=*/false, &result.checks);
    if (r == 0) peak_rss_mb = PeakRssMb();
  }
  std::fprintf(stderr, "attack_refine: %d timed round(s), %.3f s\n", rounds,
               timed.total_s);

  if (!args.trace) {
    result.attempted = timed.investigations + timed.failed;
    result.failed = timed.failed;
    result.Add("setup_s", setup_s, "s");
    result.AddExtra("setup_wall_s", setup_wall_s, "s");
    const std::vector<double> investigation_ms =
        timed.investigation_ms.Pooled();
    const std::vector<double> gap_ms = timed.gap_ms.Pooled();
    result.Add("queries_per_s",
               Ratio(static_cast<double>(investigation_ms.size()),
                     Sum(investigation_ms) / 1000.0),
               "1/s");
    result.Add("first_update_ms_p50", Median(timed.first_update_ms.Pooled()),
               "ms");
    result.Add("update_gap_ms_p50", Median(gap_ms), "ms");
    result.Add("update_gap_ms_p99", Percentile(gap_ms, 99), "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.AddExtra("refine_ms_p50", Median(timed.refine_ms.Pooled()), "ms");
    result.AddExtra("investigation_ms_p50", Median(investigation_ms), "ms");
    result.AddExtra("update_gaps", static_cast<double>(gap_ms.size()),
                    "count");
    return result;
  }

  // Traced pass: the same number of rounds with the span log on.
  SpanLog::SetActive(&log);
  RefineSamples s;
  CounterSums counters({aptrace::obs::names::kExecutorStaleWindows,
                        aptrace::obs::names::kRefinerReuse,
                        aptrace::obs::names::kRefinerRestart});
  counters.Begin();
  std::vector<aptrace::StoreStats> stats0;
  for (const BuiltCase& c : cases) stats0.push_back(c.store->stats());
  for (int r = 0; r < rounds; ++r) {
    RunRound(cases, &rng, &s, &reference, /*first=*/false, &result.checks);
  }
  counters.End();
  StoreSums store_sums;
  for (size_t i = 0; i < cases.size(); ++i) {
    store_sums.Add(stats0[i], cases[i].store->stats());
  }
  // Scripts compiled on their own, once each, for bdl.compile_us_p50.
  for (const BuiltCase& c : cases) {
    for (const std::string& script : c.scenario.bdl_scripts) {
      Span span("bdl", "bdl::CompileBdl");
      auto spec = aptrace::bdl::CompileBdl(script);
      result.checks.Expect(spec.ok(), "scripts_compile",
                           c.scenario.name + ": " + spec.status().ToString());
    }
  }
  std::vector<double> collect_us;
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<Probe> probe_set;
    for (const aptrace::ObjectId n : reference[i].graph.nodes) {
      probe_set.push_back({n, reference[i].ts, reference[i].te});
    }
    const auto us = TimeCollect(*cases[i].store, probe_set, "storage");
    collect_us.insert(collect_us.end(), us.begin(), us.end());
  }
  const double seal_s = TimeCopySeal(*cases[0].store);
  SpanLog::SetActive(nullptr);

  const double n = static_cast<double>(s.investigations);
  result.attempted = s.investigations + s.failed;
  result.failed = s.failed;
  result.Add("obs.trace_overhead_ratio",
             Ratio(s.total_s - s.walk_s, timed.total_s), "ratio");
  result.Add("workload.generate_s", generate_s, "s");
  result.Add("storage.seal_s", seal_s, "s");
  AddStoreLayerMetrics(store_sums, n, &result);
  result.Add("storage.collect_us_p50", Median(collect_us), "us");
  result.Add("bdl.compile_us_p50", Median(log.DurationsUs("bdl::CompileBdl")),
             "us");
  result.Add("core.start_ms_p50",
             Median(log.DurationsUs("Session::Start")) / 1000.0, "ms");
  result.Add("core.step_s", log.SelfS("Session::Step"), "s");
  result.Add("core.windows_per_query",
             Ratio(static_cast<double>(s.windows), n), "count");
  result.Add("core.stale_windows",
             counters.Get(aptrace::obs::names::kExecutorStaleWindows),
             "count");
  result.Add("core.useful_window_ratio",
             Ratio(static_cast<double>(s.batches),
                   static_cast<double>(s.windows)),
             "ratio");
  result.Add("core.update_script_ms_p50",
             Median(log.DurationsUs("Session::UpdateScript")) / 1000.0, "ms");
  result.Add("core.refiner_reuse",
             counters.Get(aptrace::obs::names::kRefinerReuse), "count");
  result.Add("core.refiner_restart",
             counters.Get(aptrace::obs::names::kRefinerRestart), "count");
  result.Add("core.finish_ms_p50",
             Median(log.DurationsUs("Session::Finish")) / 1000.0, "ms");
  result.Add("graph.max_hop_us_p50", Median(log.DurationsUs("DepGraph::MaxHop")),
             "us");
  result.Add("graph.max_hop_us_p99",
             Percentile(log.DurationsUs("DepGraph::MaxHop"), 99), "us");
  result.Add("graph.nodes_p50", Median(s.graph_nodes), "count");
  result.Add("graph.edges_per_query", Ratio(Sum(s.graph_edges), n), "count");
  result.Add("graph.json_ms_p50",
             Median(log.DurationsUs("WriteGraphJson")) / 1000.0, "ms");
  WriteSpans(log, args);
  return result;
}

}  // namespace perfbench

// The alert-triage query method shared by the alert_triage and
// remote_shards workloads: the paper's Table II loop, one capped
// backtracking query per sampled alert through Session::StartWithSpec /
// Step, closed loop on one thread.
#ifndef PERFBENCH_TRIAGE_H_
#define PERFBENCH_TRIAGE_H_

#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "obs/names.h"
#include "oracle.h"
#include "tracing.h"
#include "util/rng.h"

namespace perfbench {

/// The paper's per-query cap (Section IV-B1): two simulated hours.
inline constexpr aptrace::DurationMicros kQueryCapMicros =
    2 * aptrace::kMicrosPerHour;

/// What one query produced, kept from the warm-up round for the checks
/// and compared against on every timed round.
struct TriageOutcome {
  aptrace::StopReason reason = aptrace::StopReason::kCompleted;
  GraphRec graph;
  std::vector<aptrace::UpdateBatch> log;
  aptrace::DurationMicros scan_cost = 0;
  uint64_t work_units = 0;
  aptrace::TimeMicros ts = 0;
  aptrace::TimeMicros te = 0;
};

/// Store probe counts summed over chosen stretches of a run.
struct StoreSums {
  double probes = 0;
  double rows = 0;
  double partitions = 0;
  void Add(const aptrace::StoreStats& before, const aptrace::StoreStats& after) {
    probes += static_cast<double>(after.queries - before.queries);
    rows += static_cast<double>(after.rows_matched - before.rows_matched);
    partitions += static_cast<double>(after.partitions_probed -
                                      before.partitions_probed);
  }
};

/// Timings and per-layer counts of the queries of a run. Timings are
/// kept per round and per query (PerOpBest); counts are summed.
struct TriageSamples {
  PerOpBest query_ms;         // whole query, spec to last batch
  PerOpBest first_update_ms;  // StartWithSpec -> first batch
  PerOpBest gap_ms;           // between consecutive batches
  // Summed query wall of the latest pass, less the benchmark's own
  // DepGraph::MaxHop walks of a traced pass.
  double last_pass_query_s = 0;
  std::vector<double> graph_nodes;
  std::vector<double> graph_edges;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t no_history = 0;  // queries that produced no update batch
  uint64_t capped = 0;
  uint64_t windows = 0;
  uint64_t batches = 0;
  /// Peak RSS at the end of the first timed round (fixed work).
  double peak_rss_mb = 0;
  /// Traced queries only: program counters and store probes counted
  /// from each query's start to its end (its warm start left out).
  CounterSums counters{{aptrace::obs::names::kExecutorStaleWindows,
                        aptrace::obs::names::kDistRpcs,
                        aptrace::obs::names::kDistRetries}};
  StoreSums store;
};

/// Runs one query, after an untimed start of `partner`'s query up to its
/// first update (the warm start). `keep`, when non-null, receives the
/// full outcome; otherwise only the cheap identity fields are filled into
/// `summary`. Returns false when the program reported an error.
bool RunTriageQuery(const aptrace::EventStore& store,
                    const aptrace::Event& alert, const aptrace::Event& partner,
                    size_t op,
                    TriageSamples* samples, TriageOutcome* keep,
                    TriageOutcome* summary);

/// A full pass (one round) over `alerts`, in an order drawn from `order`
/// (as listed when null). Query i's warm-start partner is alert i + 1 of
/// the list (the first for the last), whatever the drawn order: every
/// query then meets the same cache state on every round, and not one left
/// by its own start. With `reference` non-null every query must repeat it
/// (CompareRepeat).
void RunTriagePass(const aptrace::EventStore& store,
                   const std::vector<aptrace::Event>& alerts,
                   aptrace::Rng* order, TriageSamples* samples,
                   std::vector<TriageOutcome>* keep,
                   const std::vector<TriageOutcome>* reference,
                   Checks* checks);

/// "" when a later round repeated `ref`: same stop reason, graph size,
/// simulated scan cost and window count.
std::string CompareRepeat(const TriageOutcome& got, const TriageOutcome& ref);

/// "" when two stores answered alike: same stop reason, simulated scan
/// cost and graph (digest).
std::string CompareAcrossStores(const TriageOutcome& got,
                                const TriageOutcome& ref);

/// The checks on the first timed round's outcomes: closure equality for
/// completed queries, the dependency rule for capped ones, update-log
/// accounting for all.
void CheckTriageOutcomes(const aptrace::EventStore& store,
                         const std::vector<aptrace::Event>& alerts,
                         const std::vector<TriageOutcome>& outcomes,
                         Checks* checks);

/// Alerts for a run: a fixed systematic sample of `n` stored events over
/// every history size.
std::vector<aptrace::Event> SampleAlerts(const aptrace::EventStore& store,
                                         size_t n);

/// End-to-end metrics of a timed triage run (the workload adds setup_s
/// and peak_rss_mb).
void AddTriageMetrics(const TriageSamples& s, Result* out);

/// storage.collect_us_p50's probe set: a deterministic sample of
/// (node, query range) pairs over the outcomes' graphs.
struct Probe {
  aptrace::ObjectId node = aptrace::kInvalidObjectId;
  aptrace::TimeMicros ts = 0;
  aptrace::TimeMicros te = 0;
};
std::vector<Probe> ProbeSet(const std::vector<TriageOutcome>& outcomes,
                            size_t max_probes);
/// Times CollectDest over the probe set (spans in `layer`); per-call
/// microseconds.
std::vector<double> TimeCollect(const aptrace::EventStore& store,
                                const std::vector<Probe>& probes,
                                const char* layer);

/// Every tenth alert: the untimed warm-up set.
std::vector<aptrace::Event> WarmUpSubset(
    const std::vector<aptrace::Event>& alerts);

/// Warm-up, then TimedRounds(args, rounds_per_second, 3) whole timed
/// rounds over `alerts` (exactly one with --trace 1). Every round runs the
/// alerts in a fresh order drawn from `order`. The first timed round fills
/// `outcomes`; later rounds must repeat it. Each query's timings are the
/// fastest of its rounds (PerOpBest).
void RunTriageWorkload(const aptrace::EventStore& store,
                       const std::vector<aptrace::Event>& alerts,
                       aptrace::Rng* order, const Args& args,
                       double rounds_per_second, const char* name,
                       Result* result,
                       std::vector<TriageOutcome>* outcomes,
                       TriageSamples* timed);

/// Per-layer metrics of a traced triage pass shared by both workloads.
void AddTriageLayerMetrics(const TriageSamples& s, const SpanLog& log,
                           Result* out);

/// storage.probes_per_query, rows_per_probe and partitions_per_probe of
/// `queries` queries.
void AddStoreLayerMetrics(const StoreSums& sums, double queries, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRIAGE_H_

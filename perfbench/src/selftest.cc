// Self-test of the correctness checks: each check runs once on a clean
// result, where it must pass, and once on a copy with one deliberate
// corruption, where it must fail. Inputs are small (the unit-test trace
// and one attack case), so the whole test takes a few seconds.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/json_writer.h"
#include "oracle.h"
#include "triage.h"
#include "workload/enterprise.h"
#include "workload/scenario.h"
#include "workloads.h"

namespace perfbench {

using aptrace::Event;
using aptrace::EventStore;
using aptrace::StopReason;

namespace {

class SelfTest {
 public:
  /// `clean` must be "" (check passes), `corrupted` non-empty (fails).
  void Case(const std::string& check, const std::string& clean,
            const std::string& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    all_ok_ &= ok;
    std::printf("self-test %-30s clean: %-4s corrupted: %-4s %s%s\n",
                check.c_str(), clean.empty() ? "pass" : "FAIL",
                corrupted.empty() ? "pass" : "FAIL",
                ok ? "ok" : "NOT CAUGHT",
                clean.empty() ? ("  (" + corrupted + ")").c_str()
                              : ("  (clean failed: " + clean + ")").c_str());
  }
  void Missing(const std::string& check, const std::string& why) {
    all_ok_ = false;
    std::printf("self-test %-30s NOT RUN: %s\n", check.c_str(), why.c_str());
  }
  bool ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

std::string GraphJsonOf(const aptrace::DepGraph& graph,
                        const EventStore& store) {
  std::ostringstream os;
  aptrace::WriteGraphJson(graph, store.catalog(), os);
  return os.str();
}

void TriageChecks(SelfTest* t) {
  const auto store =
      aptrace::workload::BuildEnterpriseTrace(
          aptrace::workload::TraceConfig::Small());
  const std::vector<Event> alerts = SampleAlerts(*store, 60);
  TriageSamples samples;
  const TriageOutcome* completed = nullptr;
  const TriageOutcome* capped = nullptr;
  const Event* completed_alert = nullptr;
  const Event* capped_alert = nullptr;
  std::vector<TriageOutcome> outcomes(alerts.size());
  samples.query_ms.NewRound();
  samples.first_update_ms.NewRound();
  samples.gap_ms.NewRound();
  for (size_t i = 0; i < alerts.size(); ++i) {
    TriageOutcome summary;
    if (!RunTriageQuery(*store, alerts[i], alerts[(i + 1) % alerts.size()],
                        i, &samples, &outcomes[i], &summary)) {
      continue;
    }
    const TriageOutcome& o = outcomes[i];
    if (o.reason == StopReason::kCompleted && o.graph.edges.size() >= 3 &&
        completed == nullptr) {
      completed = &o;
      completed_alert = &alerts[i];
    }
    if (o.reason != StopReason::kCompleted && capped == nullptr) {
      capped = &o;
      capped_alert = &alerts[i];
    }
  }
  if (completed == nullptr || capped == nullptr) {
    t->Missing("triage checks", "no completed and capped query in the sample");
    return;
  }
  const aptrace::TimeMicros ts = store->MinTime();
  const aptrace::TimeMicros te = store->MaxTime() + 1;

  // closure_equal: drop one edge that is not the alert's.
  const auto closure = BackwardClosure(*store, *completed_alert, ts, te);
  GraphRec missing = completed->graph;
  for (size_t i = 0; i < missing.edges.size(); ++i) {
    if (missing.edges[i].id != completed_alert->id) {
      missing.edges.erase(missing.edges.begin() + static_cast<long>(i));
      break;
    }
  }
  t->Case("closure_equal", CompareWithClosure(completed->graph, closure),
          CompareWithClosure(missing, closure));

  // capped_subset: move one edge later than any dependent edge out of
  // its destination.
  GraphRec late = capped->graph;
  for (EdgeRec& e : late.edges) {
    if (e.id != capped_alert->id) {
      e.ts = store->MaxTime() + 1;
      break;
    }
  }
  t->Case("capped_subset",
          CheckFollowsRule(*store, capped->graph, *capped_alert, ts),
          CheckFollowsRule(*store, late, *capped_alert, ts));

  // update_log_sums: one batch claims an extra edge.
  std::vector<aptrace::UpdateBatch> log = completed->log;
  if (log.empty()) {
    t->Missing("update_log_sums", "completed query has no update batch");
  } else {
    log.front().new_edges++;
    t->Case("update_log_sums",
            CheckUpdateLog(completed->log, completed->graph, *completed_alert),
            CheckUpdateLog(log, completed->graph, *completed_alert));
  }

  // repeat_identical: a later round charged one more window.
  TriageOutcome repeat = *completed;
  repeat.work_units++;
  t->Case("repeat_identical (queries)", CompareRepeat(*completed, *completed),
          CompareRepeat(repeat, *completed));

  // same_as_inprocess_sharded: one more simulated microsecond of scans.
  TriageOutcome costlier = *capped;
  costlier.scan_cost++;
  t->Case("same_as_inprocess_sharded", CompareAcrossStores(*capped, *capped),
          CompareAcrossStores(costlier, *capped));

  // completed_same_as_monolithic: one edge short.
  TriageOutcome shorter = *completed;
  shorter.graph = missing;
  t->Case("completed_same_as_monolithic",
          CompareGraphs(completed->graph, completed->graph),
          CompareGraphs(shorter.graph, completed->graph));

  // planted_chain_found: a chain event that is not in the served graph.
  aptrace::SimClock clock;
  aptrace::Session session(store.get(), &clock);
  if (!session.StartWithSpec(
              aptrace::workload::GenericSpecFor(*store, *completed_alert),
              *completed_alert)
           .ok() ||
      !session.Step({}).ok()) {
    t->Missing("planted_chain_found", "session failed");
    return;
  }
  const std::string json = GraphJsonOf(session.graph(), *store);
  std::vector<aptrace::EventId> chain;
  for (const EdgeRec& e : completed->graph.edges) chain.push_back(e.id);
  std::vector<aptrace::EventId> bad_chain = chain;
  bad_chain.push_back(store->NumEvents());
  t->Case("planted_chain_found", CheckChainInGraph(json, chain),
          CheckChainInGraph(json, bad_chain));

  // served_equals_inprocess: one byte of the served graph differs.
  std::string served = json;
  served[served.size() / 2] ^= 1;
  t->Case("served_equals_inprocess", CompareServed(json, "done", json, "done"),
          CompareServed(served, "done", json, "done"));

  // recovered_store_equal: the recovered store holds one event more.
  const auto same = aptrace::workload::BuildEnterpriseTrace(
      aptrace::workload::TraceConfig::Small());
  auto longer = aptrace::workload::BuildEnterpriseTrace(
      aptrace::workload::TraceConfig::Small());
  Event extra = longer->Get(0);
  extra.timestamp = longer->MaxTime() + 1;
  longer->Append(extra);
  t->Case("recovered_store_equal", CompareStores(*same, *store),
          CompareStores(*longer, *store));
}

void AttackChecks(SelfTest* t) {
  auto built = aptrace::workload::BuildAttackCase(
      "phishing_email", aptrace::workload::TraceConfig{});
  if (!built.ok()) {
    t->Missing("attack checks", built.status().ToString());
    return;
  }
  const aptrace::workload::AttackScenario& scenario = built->scenario;
  aptrace::SimClock clock;
  aptrace::Session session(built->store.get(), &clock);
  aptrace::RunLimits limits;
  limits.should_stop = [&] {
    return aptrace::workload::ChainRecovered(session.graph(), scenario);
  };
  if (!session.Start(scenario.bdl_scripts.back()).ok() ||
      !session.Step(limits).ok() || !session.Finish().ok()) {
    t->Missing("attack checks", "the final script did not run");
    return;
  }
  // chain_recovered: the program's own ChainRecovered on a graph that
  // lost the penetration point.
  aptrace::DepGraph pruned = session.graph();
  pruned.RemoveNodesIf([&](aptrace::ObjectId id) {
    return id == scenario.penetration_point;
  });
  t->Case("chain_recovered",
          aptrace::workload::ChainRecovered(session.graph(), scenario)
              ? ""
              : "ChainRecovered false",
          aptrace::workload::ChainRecovered(pruned, scenario)
              ? ""
              : "ChainRecovered false");
  // penetration_point: the injector's ground truth against the graph.
  const GraphRec graph = ExtractGraph(session.graph());
  t->Case("penetration_point", CheckGroundTruth(scenario, graph),
          CheckGroundTruth(scenario, ExtractGraph(pruned)));
  // repeat_identical (investigations): graph JSON bytes.
  const std::string json = GraphJsonOf(session.graph(), *built->store);
  std::string changed = json;
  changed.back() ^= 1;
  t->Case("repeat_identical (graph JSON)",
          CompareServed(json, "", json, ""),
          CompareServed(changed, "", json, ""));
}

void DaemonChecks(SelfTest* t) {
  t->Case("wal_seq_consecutive", CheckWalSeq(4, 5, 64, 64),
          CheckWalSeq(4, 6, 64, 64));
  t->Case("event_counts_agree", CheckEventCounts(128, 128, 128),
          CheckEventCounts(128, 128, 127));
  t->Case("ingest_applied", CheckApplied(128, 128),
          CheckApplied(127, 128));
  const auto response = [](const std::string& line) {
    return CheckResponse(aptrace::service::ParseJson(line), line);
  };
  t->Case("responses_ok", response("{\"ok\":true}"),
          response("{\"ok\":false,\"code\":\"SRV-E004\"}"));
}

}  // namespace

int RunSelfTest(const Args&) {
  SelfTest t;
  TriageChecks(&t);
  AttackChecks(&t);
  DaemonChecks(&t);
  std::printf("self-test: %s\n",
              t.ok() ? "every check caught its corruption"
                     : "SOME CHECKS DID NOT CATCH THEIR CORRUPTION");
  return t.ok() ? 0 : 1;
}

}  // namespace perfbench

// Correctness checks made apart from the program: a reference backward
// closure computed by the benchmark's own worklist search over
// EventStore::CollectDest, the dependency rule every edge of a capped
// graph must satisfy, and update-log accounting. Each check takes plain
// data so the self-test can hand it a corrupted copy.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/update_log.h"
#include "graph/dep_graph.h"
#include "service/json.h"
#include "storage/event_store.h"
#include "workload/scenario.h"

namespace perfbench {

/// One graph edge as the checks see it.
struct EdgeRec {
  aptrace::EventId id = aptrace::kInvalidEventId;
  aptrace::ObjectId src = aptrace::kInvalidObjectId;
  aptrace::ObjectId dst = aptrace::kInvalidObjectId;
  aptrace::TimeMicros ts = 0;
};

/// A finished query's graph, reduced to what the checks compare.
struct GraphRec {
  std::vector<EdgeRec> edges;               // sorted by id
  std::vector<aptrace::ObjectId> nodes;     // sorted
};

GraphRec ExtractGraph(const aptrace::DepGraph& graph);

/// Order-independent digest of a graph's edge set (FNV-1a over the
/// id-sorted edges).
uint64_t Digest(const GraphRec& graph);

/// Event ids (sorted) of the backward closure of `alert` within
/// [ts, te): the alert itself, then every event into an object `o` with
/// ts <= time < the latest closure event out of `o`. Worklist search over
/// CollectDest that rescans no history twice.
std::vector<aptrace::EventId> BackwardClosure(const aptrace::EventStore& store,
                                              const aptrace::Event& alert,
                                              aptrace::TimeMicros ts,
                                              aptrace::TimeMicros te);

/// "" when the graph's edge ids equal the closure, else a description.
std::string CompareWithClosure(const GraphRec& graph,
                               const std::vector<aptrace::EventId>& closure);

/// "" when every edge is a stored event with the recorded endpoints and
/// time, every edge other than the alert satisfies the dependency rule
/// (time >= ts and before the latest graph edge out of its destination),
/// and the node set is exactly the edges' endpoints. By induction along
/// strictly increasing times such a graph is a subset of the closure.
std::string CheckFollowsRule(const aptrace::EventStore& store,
                             const GraphRec& graph,
                             const aptrace::Event& alert,
                             aptrace::TimeMicros ts);

/// "" when the update log adds up to the graph: the summed new_edges and
/// new_nodes equal the final totals less the start edge and its
/// endpoints, and the last batch's totals equal the graph's.
std::string CheckUpdateLog(const std::vector<aptrace::UpdateBatch>& log,
                           const GraphRec& graph, const aptrace::Event& alert);

/// "" when two graphs have the same edges and node count (digest).
std::string CompareGraphs(const GraphRec& got, const GraphRec& ref);

/// "" when the graph holds the injector's ground truth: every chain
/// object and the penetration point.
std::string CheckGroundTruth(const aptrace::workload::AttackScenario& scenario,
                             const GraphRec& graph);

/// "" when every `chain` event is an edge of the served graph JSON.
std::string CheckChainInGraph(const std::string& graph_json,
                              const std::vector<aptrace::EventId>& chain);

/// "" when a served graph (and terminal state) equals the in-process one
/// byte for byte.
std::string CompareServed(const std::string& served,
                          const std::string& served_state,
                          const std::string& reference,
                          const std::string& reference_state);

/// "" when both stores hold the same events in the same id order.
std::string CompareStores(const aptrace::EventStore& got,
                          const aptrace::EventStore& ref);

/// "" when an ingest ack carries the next WAL sequence number and
/// accepted the whole batch.
std::string CheckWalSeq(uint64_t previous, uint64_t acked, uint64_t accepted,
                        uint64_t sent);

/// "" when the events sent, the manager's ingested_total growth and the
/// store's growth agree.
std::string CheckEventCounts(uint64_t sent, uint64_t ingested,
                             uint64_t stored);

/// "" when at least `sent` events were applied.
std::string CheckApplied(uint64_t applied, uint64_t sent);

/// "" when a protocol response line, parsed as `parsed`, says ok:true.
std::string CheckResponse(
    const aptrace::Result<aptrace::service::JsonValue>& parsed,
    const std::string& response);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

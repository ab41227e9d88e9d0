#include "oracle.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "service/json.h"

namespace perfbench {

using aptrace::DepGraph;
using aptrace::Event;
using aptrace::EventId;
using aptrace::EventStore;
using aptrace::ObjectId;
using aptrace::TimeMicros;

GraphRec ExtractGraph(const DepGraph& graph) {
  GraphRec g;
  g.edges.reserve(graph.NumEdges());
  graph.ForEachEdge([&](const DepGraph::Edge& e) {
    g.edges.push_back({e.event, e.src, e.dst, e.timestamp});
  });
  std::sort(g.edges.begin(), g.edges.end(),
            [](const EdgeRec& a, const EdgeRec& b) { return a.id < b.id; });
  g.nodes = graph.NodeIds();
  std::sort(g.nodes.begin(), g.nodes.end());
  return g;
}

uint64_t Digest(const GraphRec& graph) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const EdgeRec& e : graph.edges) {
    mix(e.id);
    mix(e.src);
    mix(e.dst);
    mix(static_cast<uint64_t>(e.ts));
  }
  mix(graph.nodes.size());
  return h;
}

std::vector<EventId> BackwardClosure(const EventStore& store,
                                     const Event& alert, TimeMicros ts,
                                     TimeMicros te) {
  std::unordered_set<EventId> seen{alert.id};
  // Per object: history [ts, scanned_until) already collected.
  std::unordered_map<ObjectId, TimeMicros> scanned_until;
  std::vector<std::pair<ObjectId, TimeMicros>> work{
      {alert.FlowSource(), alert.timestamp}};
  while (!work.empty()) {
    const auto [object, until] = work.back();
    work.pop_back();
    auto [it, inserted] = scanned_until.try_emplace(object, ts);
    const TimeMicros from = it->second;
    const TimeMicros to = std::min(until, te);
    if (to <= from) continue;
    it->second = to;
    const aptrace::RangeScanBatch batch = store.CollectDest(object, from, to);
    for (const EventId id : batch.rows) {
      if (!seen.insert(id).second) continue;
      const Event e = store.Get(id);
      work.emplace_back(e.FlowSource(), e.timestamp);
    }
  }
  std::vector<EventId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::string CompareWithClosure(const GraphRec& graph,
                               const std::vector<EventId>& closure) {
  if (graph.edges.size() != closure.size()) {
    return "graph has " + std::to_string(graph.edges.size()) +
           " edges, reference closure " + std::to_string(closure.size());
  }
  for (size_t i = 0; i < closure.size(); ++i) {
    if (graph.edges[i].id != closure[i]) {
      return "edge sets differ at event " + std::to_string(closure[i]);
    }
  }
  return "";
}

std::string CheckFollowsRule(const EventStore& store, const GraphRec& graph,
                             const Event& alert, TimeMicros ts) {
  std::unordered_map<ObjectId, TimeMicros> latest_out;
  std::unordered_set<ObjectId> endpoints;
  bool has_alert = false;
  for (const EdgeRec& e : graph.edges) {
    if (e.id >= store.NumEvents()) {
      return "edge " + std::to_string(e.id) + " is not a stored event";
    }
    const Event stored = store.Get(e.id);
    if (stored.FlowSource() != e.src || stored.FlowDest() != e.dst ||
        stored.timestamp != e.ts) {
      return "edge " + std::to_string(e.id) + " differs from the store";
    }
    auto [it, inserted] = latest_out.try_emplace(e.src, e.ts);
    if (!inserted) it->second = std::max(it->second, e.ts);
    endpoints.insert(e.src);
    endpoints.insert(e.dst);
    has_alert |= e.id == alert.id;
  }
  if (!has_alert) return "the alert edge is missing";
  for (const EdgeRec& e : graph.edges) {
    if (e.id == alert.id) continue;
    const auto it = latest_out.find(e.dst);
    if (e.ts < ts || it == latest_out.end() || e.ts >= it->second) {
      return "edge " + std::to_string(e.id) +
             " has no later dependent edge out of object " +
             std::to_string(e.dst);
    }
  }
  if (endpoints.size() != graph.nodes.size()) {
    return "graph has " + std::to_string(graph.nodes.size()) +
           " nodes for " + std::to_string(endpoints.size()) +
           " edge endpoints";
  }
  for (const ObjectId n : graph.nodes) {
    if (endpoints.count(n) == 0) {
      return "node " + std::to_string(n) + " has no edge";
    }
  }
  return "";
}

std::string CheckUpdateLog(const std::vector<aptrace::UpdateBatch>& log,
                           const GraphRec& graph, const Event& alert) {
  size_t edges = 0;
  size_t nodes = 0;
  for (const aptrace::UpdateBatch& b : log) {
    edges += b.new_edges;
    nodes += b.new_nodes;
  }
  const size_t start_nodes = alert.FlowSource() == alert.FlowDest() ? 1 : 2;
  if (edges + 1 != graph.edges.size()) {
    return "update log adds " + std::to_string(edges) +
           " edges to the start edge, graph has " +
           std::to_string(graph.edges.size());
  }
  if (nodes + start_nodes != graph.nodes.size()) {
    return "update log adds " + std::to_string(nodes) + " nodes to " +
           std::to_string(start_nodes) + ", graph has " +
           std::to_string(graph.nodes.size());
  }
  if (!log.empty() && (log.back().total_edges != graph.edges.size() ||
                       log.back().total_nodes != graph.nodes.size())) {
    return "last update batch totals differ from the graph";
  }
  return "";
}

std::string CompareGraphs(const GraphRec& got, const GraphRec& ref) {
  if (got.edges.size() != ref.edges.size() ||
      got.nodes.size() != ref.nodes.size() || Digest(got) != Digest(ref)) {
    return "graphs differ (" + std::to_string(got.edges.size()) + " vs " +
           std::to_string(ref.edges.size()) + " edges)";
  }
  return "";
}

std::string CheckGroundTruth(const aptrace::workload::AttackScenario& scenario,
                             const GraphRec& graph) {
  const auto has = [&](ObjectId id) {
    return std::binary_search(graph.nodes.begin(), graph.nodes.end(), id);
  };
  if (scenario.penetration_point == aptrace::kInvalidObjectId ||
      !has(scenario.penetration_point)) {
    return "penetration point " +
           std::to_string(scenario.penetration_point) + " missing";
  }
  for (const ObjectId id : scenario.ground_truth) {
    if (!has(id)) return "chain object " + std::to_string(id) + " missing";
  }
  return "";
}

std::string CheckChainInGraph(const std::string& graph_json,
                              const std::vector<EventId>& chain) {
  auto parsed = aptrace::service::ParseJson(graph_json);
  if (!parsed.ok()) return "graph JSON does not parse";
  const aptrace::service::JsonValue* edges = parsed.value().Find("edges");
  if (edges == nullptr || !edges->IsArray()) return "graph JSON has no edges";
  std::vector<EventId> ids;
  for (const auto& e : edges->items) ids.push_back(e.GetUint("event"));
  std::sort(ids.begin(), ids.end());
  for (const EventId id : chain) {
    if (!std::binary_search(ids.begin(), ids.end(), id)) {
      return "chain event " + std::to_string(id) + " missing";
    }
  }
  return "";
}

std::string CompareServed(const std::string& served,
                          const std::string& served_state,
                          const std::string& reference,
                          const std::string& reference_state) {
  if (served_state != reference_state) {
    return "served state " + served_state + ", in-process " + reference_state;
  }
  if (served != reference) {
    size_t i = 0;
    while (i < served.size() && i < reference.size() &&
           served[i] == reference[i]) {
      ++i;
    }
    return "graph bytes differ at offset " + std::to_string(i);
  }
  return "";
}

std::string CompareStores(const EventStore& got, const EventStore& ref) {
  if (got.NumEvents() != ref.NumEvents()) {
    return std::to_string(got.NumEvents()) + " events, expected " +
           std::to_string(ref.NumEvents());
  }
  for (EventId id = 0; id < ref.NumEvents(); ++id) {
    const Event a = got.Get(id);
    const Event b = ref.Get(id);
    if (a.subject != b.subject || a.object != b.object ||
        a.timestamp != b.timestamp || a.amount != b.amount ||
        a.action != b.action || a.direction != b.direction ||
        a.host != b.host) {
      return "event " + std::to_string(id) + " differs";
    }
  }
  return "";
}

std::string CheckWalSeq(uint64_t previous, uint64_t acked, uint64_t accepted,
                        uint64_t sent) {
  if (acked != previous + 1) {
    return "ack wal_seq " + std::to_string(acked) + " after " +
           std::to_string(previous);
  }
  if (accepted != sent) {
    return "accepted " + std::to_string(accepted) + " of " +
           std::to_string(sent) + " events";
  }
  return "";
}

std::string CheckEventCounts(uint64_t sent, uint64_t ingested,
                             uint64_t stored) {
  if (sent != ingested || sent != stored) {
    return "sent " + std::to_string(sent) + ", ingested_total +" +
           std::to_string(ingested) + ", store +" + std::to_string(stored);
  }
  return "";
}

std::string CheckApplied(uint64_t applied, uint64_t sent) {
  return applied >= sent ? ""
                         : std::to_string(applied) + " of " +
                               std::to_string(sent) + " events applied";
}

std::string CheckResponse(
    const aptrace::Result<aptrace::service::JsonValue>& parsed,
    const std::string& response) {
  if (!parsed.ok() || !parsed.value().GetBool("ok", false)) {
    return response.substr(0, 200);
  }
  return "";
}

}  // namespace perfbench

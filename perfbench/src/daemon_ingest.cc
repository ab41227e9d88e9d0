// daemon_ingest: writes beside reads through the daemon's own request
// path. A service::SessionManager with durability on (WAL in a
// disk-backed directory inside the checkout, fsync'd before every ack) is
// driven through ProtocolHandler::HandleLine by one closed-loop client
// that interleaves fixed-size ingest batches with open / poll / graph of
// backtracking sessions.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <chrono>
#include <vector>

#include "bdl/analyzer.h"
#include "core/engine.h"
#include "graph/json_writer.h"
#include "obs/json_dict.h"
#include "obs/names.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "storage/file_env.h"
#include "storage/recovery.h"
#include "storage/trace_io.h"
#include "storage/wal.h"
#include "triage.h"
#include "util/rng.h"
#include "workload/enterprise.h"
#include "workloads.h"

namespace perfbench {

using aptrace::Event;
using aptrace::EventId;
using aptrace::EventStore;
using aptrace::service::JsonValue;

namespace {

// Traffic shape. One iteration: kBatchesPerIteration ingest batches of
// kBatchEvents events (the last kChainEvents of each a planted causal
// chain), then one session, opened, polled to its end and fetched with
// `graph`: on even iterations it backtracks a sampled alert of the loaded
// trace, on odd ones the last planted chain's final event.
constexpr size_t kBatchEvents = 64;
constexpr size_t kChainEvents = 4;
constexpr size_t kBatchesPerIteration = 2;
constexpr size_t kIterationsPerRound = 64;
constexpr size_t kSessionsOfAKind = kIterationsPerRound / 2;
constexpr size_t kWarmUpIterations = 4;
constexpr int kMinDaemonRounds = 5;
// A round takes about one second on the reference machine.
constexpr double kRoundsPerSecond = 1;
// Per-session simulated budget: one simulated minute, so the loop's time
// is shared between ingest and queries instead of being set by the few
// dependency-explosion alerts of a round.
constexpr int64_t kSimBudget = 60LL * 1000000;

aptrace::workload::TraceConfig DaemonTraceConfig() {
  aptrace::workload::TraceConfig config;
  config.num_hosts = 4;
  config.days = 5;
  config.seed = 42;
  return config;
}

/// Removes the data directory when the workload ends, on every path.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ScriptFor(const EventStore& store, const Event& alert) {
  return std::string("backward ") +
         aptrace::ObjectTypeName(
             store.catalog().Get(alert.FlowDest()).type()) +
         " x[] -> *";
}

/// Generates ingest batches from the seed: events copied from random
/// stored events (existing subjects, objects, hosts, actions), stamped
/// after everything ingested so far, plus a planted chain
/// f0 -read-> p1 -write-> f1 -read-> p2 -write-> f2 whose last event is
/// the chain session's alert. The chain's processes come from a fixed
/// systematic sample over the trace's reads sorted by how much history
/// the reading process has, so every seed plants chains behind the same
/// process histories; the seed pairs them up and draws the filler
/// events. Chain k of a round always uses the same pair.
class IngestGenerator {
 public:
  IngestGenerator(const EventStore& store, uint64_t seed)
      : store_(store), rng_(seed), next_ts_(store.MaxTime() + 1000000) {
    std::vector<uint64_t> incoming(store.catalog().size(), 0);
    std::vector<Event> reads;
    for (EventId id = 0; id < store.NumEvents(); ++id) {
      const Event e = store.Get(id);
      incoming[e.FlowDest()]++;
      if (e.action == aptrace::ActionType::kRead) reads.push_back(e);
      if (e.action == aptrace::ActionType::kWrite) writes_.push_back(e);
    }
    std::sort(reads.begin(), reads.end(), [&](const Event& a, const Event& b) {
      return incoming[a.subject] != incoming[b.subject]
                 ? incoming[a.subject] < incoming[b.subject]
                 : a.id < b.id;
    });
    const size_t picks = 2 * kSessionsOfAKind;
    if (reads.size() < picks) return;
    const double step =
        static_cast<double>(reads.size()) / static_cast<double>(picks);
    const double start = step / 2;
    for (size_t i = 0; i < picks; ++i) {
      chain_reads_.push_back(
          reads[static_cast<size_t>(start + static_cast<double>(i) * step)]);
    }
    // Chain k uses reads 2j and 2j+1 for a seeded permutation j of k.
    for (size_t i = chain_reads_.size() / 2; i > 1; --i) {
      const size_t j = rng_.Uniform(i);
      std::swap(chain_reads_[2 * (i - 1)], chain_reads_[2 * j]);
      std::swap(chain_reads_[2 * (i - 1) + 1], chain_reads_[2 * j + 1]);
    }
  }

  bool ok() const { return !chain_reads_.empty() && !writes_.empty(); }

  /// Starts the next round's traffic one simulated day after the last
  /// ingested event, so a round's chains sit apart from earlier rounds'
  /// ingest and every round costs the same.
  void NextDay() { next_ts_ += aptrace::kMicrosPerDay; }

  /// A batch whose chain is chain `k` of a round.
  std::vector<Event> NextBatch(size_t k) {
    std::vector<Event> batch;
    for (size_t i = 0; i + kChainEvents < kBatchEvents; ++i) {
      Event e = store_.Get(rng_.Uniform(store_.NumEvents()));
      e.id = aptrace::kInvalidEventId;
      e.timestamp = Tick();
      batch.push_back(e);
    }
    const Event& r1 = chain_reads_[2 * (k % kSessionsOfAKind)];
    const Event& r2 = chain_reads_[2 * (k % kSessionsOfAKind) + 1];
    const aptrace::ObjectId f1 = writes_[rng_.Uniform(writes_.size())].object;
    const aptrace::ObjectId f2 = writes_[rng_.Uniform(writes_.size())].object;
    batch.push_back(Make(r1.subject, r1.object, aptrace::ActionType::kRead,
                         r1.host));
    batch.push_back(Make(r1.subject, f1, aptrace::ActionType::kWrite,
                         r1.host));
    batch.push_back(Make(r2.subject, f1, aptrace::ActionType::kRead,
                         r2.host));
    batch.push_back(Make(r2.subject, f2, aptrace::ActionType::kWrite,
                         r2.host));
    return batch;
  }

 private:
  aptrace::TimeMicros Tick() {
    next_ts_ += 1000 + static_cast<aptrace::TimeMicros>(rng_.Uniform(1000));
    return next_ts_;
  }
  Event Make(aptrace::ObjectId subject, aptrace::ObjectId object,
             aptrace::ActionType action, aptrace::HostId host) {
    Event e;
    e.subject = subject;
    e.object = object;
    e.action = action;
    e.direction = aptrace::ActionDefaultDirection(action);
    e.host = host;
    e.amount = 4096;
    e.timestamp = Tick();
    return e;
  }

  const EventStore& store_;
  aptrace::Rng rng_;
  aptrace::TimeMicros next_ts_;
  std::vector<Event> chain_reads_;
  std::vector<Event> writes_;
};

std::string IngestLine(const std::vector<Event>& batch) {
  std::string events = "[";
  for (size_t i = 0; i < batch.size(); ++i) {
    const Event& e = batch[i];
    aptrace::obs::JsonDict d;
    d.Add("subject", static_cast<uint64_t>(e.subject));
    d.Add("object", static_cast<uint64_t>(e.object));
    d.Add("timestamp", static_cast<int64_t>(e.timestamp));
    d.Add("amount", static_cast<uint64_t>(e.amount));
    d.Add("action", static_cast<uint64_t>(e.action));
    d.Add("direction", static_cast<uint64_t>(e.direction));
    d.Add("host", static_cast<uint64_t>(e.host));
    if (i != 0) events += ",";
    events += d.Str();
  }
  events += "]";
  aptrace::obs::JsonDict req;
  req.Add("op", "ingest");
  req.AddRaw("events", events);
  return req.Str();
}

struct DaemonSamples {
  std::vector<double> session_ms;       // open -> graph fetched
  std::vector<double> first_update_ms;  // open -> first batch in a poll
  std::vector<double> gap_ms;           // between polls delivering batches
  std::vector<double> ingest_ack_ms;
  std::vector<double> visible_ms;       // last ack -> applied (stats)
  std::vector<double> open_ms;
  std::vector<double> poll_us;
  std::vector<double> graph_ms;
  uint64_t sessions = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  uint64_t events_acked = 0;
  uint64_t windows = 0;
  uint64_t batches = 0;
  double loop_s = 0;
};

/// A served session kept for the checks.
struct ServedSession {
  Event alert;
  std::string graph_json;
  std::string state;
};

class Client {
 public:
  Client(aptrace::service::ProtocolHandler* handler, DaemonSamples* samples,
         Checks* checks)
      : handler_(handler), samples_(samples), checks_(checks) {}

  /// Sends one line; nullopt (and one failed op) on an error response.
  std::optional<JsonValue> Call(const std::string& line, const char* span) {
    samples_->ops++;
    std::string response;
    {
      Span s("service", span);
      response = handler_->HandleLine(line, nullptr);
    }
    auto parsed = aptrace::service::ParseJson(response);
    if (const std::string bad = CheckResponse(parsed, response);
        !bad.empty()) {
      samples_->failed++;
      checks_->Expect(false, "responses_ok", std::string(span) + ": " + bad);
      return std::nullopt;
    }
    return std::move(parsed).value();
  }

  /// open -> poll to the end -> graph. Returns false on any failure.
  bool RunSession(const EventStore& store, const Event& alert,
                  ServedSession* out) {
    aptrace::obs::JsonDict open;
    open.Add("op", "open");
    open.Add("bdl", ScriptFor(store, alert));
    open.Add("start_event", static_cast<uint64_t>(alert.id));
    open.Add("sim_budget", static_cast<int64_t>(kSimBudget));
    const int64_t t_open = NowNs();
    const auto opened = Call(open.Str(), "HandleLine/open");
    samples_->open_ms.push_back(NsToMs(NowNs() - t_open));
    if (!opened) return false;
    const uint64_t id = opened->GetUint("session");
    uint64_t cursor = 0;
    int64_t last = 0;
    std::string state;
    for (;;) {
      aptrace::obs::JsonDict poll;
      poll.Add("op", "poll");
      poll.Add("session", id);
      poll.Add("cursor", cursor);
      const int64_t t_poll = NowNs();
      const auto r = Call(poll.Str(), "HandleLine/poll");
      const int64_t now = NowNs();
      samples_->poll_us.push_back(NsToUs(now - t_poll));
      if (!r) return false;
      samples_->polls++;
      const JsonValue* batches = r->Find("batches");
      if (batches != nullptr && batches->IsArray() &&
          !batches->items.empty()) {
        samples_->useful_polls++;
        samples_->batches += batches->items.size();
        if (last == 0) {
          samples_->first_update_ms.push_back(NsToMs(now - t_open));
        } else {
          samples_->gap_ms.push_back(NsToMs(now - last));
        }
        last = now;
      }
      const bool delivered = batches != nullptr && batches->IsArray() &&
                             !batches->items.empty();
      cursor = r->GetUint("next_cursor", cursor);
      if (r->GetBool("terminal", false)) {
        state = r->GetString("state");
        if (const JsonValue* snap = r->Find("snapshot"); snap != nullptr) {
          samples_->windows += snap->GetUint("work_units");
        }
        break;
      }
      if (!delivered) std::this_thread::yield();
    }
    aptrace::obs::JsonDict graph;
    graph.Add("op", "graph");
    graph.Add("session", id);
    const int64_t t_graph = NowNs();
    const auto g = Call(graph.Str(), "HandleLine/graph");
    const int64_t t_end = NowNs();
    samples_->graph_ms.push_back(NsToMs(t_end - t_graph));
    if (!g) return false;
    samples_->sessions++;
    samples_->session_ms.push_back(NsToMs(t_end - t_open));
    if (out != nullptr) {
      out->alert = alert;
      out->state = state;
      out->graph_json = g->GetString("graph");
    }
    return true;
  }

 private:
  aptrace::service::ProtocolHandler* handler_;
  DaemonSamples* samples_;
  Checks* checks_;
};

/// Replays one served session in-process: the same script and start
/// event through Session::Start / Step under the same simulated budget,
/// finalized (Finish) only when it completed, as the daemon does.
std::string ReferenceGraphJson(const EventStore& store, const Event& alert,
                               std::string* state) {
  aptrace::SimClock clock;
  aptrace::SessionOptions options;
  options.scan_threads = 1;
  aptrace::Session session(&store, &clock, options);
  aptrace::Status started = aptrace::Status::Ok();
  {
    Span span("core", "Session::Start");
    started = session.Start(ScriptFor(store, alert), alert);
  }
  if (!started.ok()) return "";
  aptrace::RunLimits limits;
  limits.should_stop = [&clock] { return clock.NowMicros() >= kSimBudget; };
  auto reason = session.Step(limits);
  if (!reason.ok()) return "";
  if (reason.value() == aptrace::StopReason::kCompleted) {
    if (!session.Finish().ok()) return "";
    *state = "done";
  } else {
    *state = "budget";
  }
  std::ostringstream os;
  Span span("graph", "WriteGraphJson");
  aptrace::WriteGraphJson(session.graph(), store.catalog(), os);
  return os.str();
}

}  // namespace

Result RunDaemonIngest(const Args& args) {
  Result result;
  Checks& checks = result.checks;
  ScopedDir dir(args.work_dir + "/wal-" + std::to_string(::getpid()));
  aptrace::FileEnv* env = aptrace::FileEnv::Posix();
  const std::string trace_path = dir.path() + "/base.trace";

  // Set-up: generate the trace, write it as the data dir's first-boot
  // fallback, open the data dir (load + seal + empty WAL replay) and the
  // WAL writer, start the manager.
  SpanLog log;
  if (args.trace) SpanLog::SetActive(&log);  // set-up spans
  const int64_t t_gen = NowNs();
  double generate_s = 0;
  {
    Span span("workload", "BuildEnterpriseTrace");
    auto generated =
        aptrace::workload::BuildEnterpriseTrace(DaemonTraceConfig());
    generate_s = NsToS(NowNs() - t_gen);
    if (auto st = aptrace::SaveTraceFile(*generated, trace_path); !st.ok()) {
      checks.Expect(false, "setup", st.ToString());
      return result;
    }
  }
  aptrace::Result<aptrace::RecoveredStore> recovered = aptrace::Status::Ok();
  {
    Span span("storage", "OpenDataDir");
    recovered = aptrace::OpenDataDir(env, dir.path(), trace_path, {});
  }
  if (!recovered.ok()) {
    checks.Expect(false, "setup", recovered.status().ToString());
    return result;
  }
  std::unique_ptr<EventStore> store = std::move(recovered->store);
  auto wal = aptrace::WalWriter::Open(env, dir.path() + "/wal.log",
                                      recovered->wal_valid_bytes,
                                      recovered->next_seq);
  if (!wal.ok()) {
    checks.Expect(false, "setup", wal.status().ToString());
    return result;
  }
  const size_t base_events = store->NumEvents();
  std::vector<Event> alerts = SampleAlerts(*store, kSessionsOfAKind);
  aptrace::Rng order(args.seed);
  for (size_t i = alerts.size(); i > 1; --i) {
    std::swap(alerts[i - 1], alerts[order.Uniform(i)]);
  }
  IngestGenerator generator(*store, args.seed);
  if (!generator.ok()) {
    checks.Expect(false, "setup", "no read/write templates in the trace");
    return result;
  }
  aptrace::service::ServiceLimits limits;
  limits.scan_threads = 1;
  limits.session_scan_threads = 1;
  auto manager =
      std::make_unique<aptrace::service::SessionManager>(store.get(), limits);
  manager->EnableDurability(wal.value().get(), recovered->next_seq - 1);
  aptrace::service::ProtocolHandler handler(manager.get());
  const double setup_s = ProcessCpuS();
  const double setup_wall_s = NsToS(NowNs() - g_process_start_ns);
  SpanLog::SetActive(nullptr);
  std::fprintf(stderr,
               "daemon_ingest: %zu events, %zu alerts per round, data dir "
               "%s, setup %.3f s CPU, %.3f s wall\n",
               base_events, alerts.size(), dir.path().c_str(), setup_s,
               setup_wall_s);

  const aptrace::service::ServiceStats stats0 = manager->stats();

  uint64_t events_sent = 0;
  uint64_t last_wal_seq = recovered->next_seq - 1;
  std::vector<ServedSession> first_round(alerts.size());

  // One iteration of the closed loop. `keep` collects the alert session
  // of the first timed round for the checks.
  const auto iteration = [&](Client* client, DaemonSamples* s, size_t i,
                             ServedSession* keep) {
    Event chain_end;
    EventId chain_first = 0;
    for (size_t b = 0; b < kBatchesPerIteration; ++b) {
      const std::vector<Event> batch = generator.NextBatch(i / 2);
      const int64_t t_ingest = NowNs();
      const auto ack = client->Call(IngestLine(batch), "HandleLine/ingest");
      s->ingest_ack_ms.push_back(NsToMs(NowNs() - t_ingest));
      if (!ack) return;
      const uint64_t wal_seq = ack->GetUint("wal_seq");
      const std::string diff = CheckWalSeq(
          last_wal_seq, wal_seq, ack->GetUint("accepted"), batch.size());
      checks.Expect(diff.empty(), "wal_seq_consecutive", diff);
      last_wal_seq = wal_seq;
      chain_first = base_events + events_sent + batch.size() - kChainEvents;
      chain_end = batch.back();
      chain_end.id = chain_first + kChainEvents - 1;
      events_sent += batch.size();
      s->events_acked += batch.size();
    }

    if (i % 2 == 0) {
      const Event& alert = alerts[i / 2];
      ServedSession served;
      if (!client->RunSession(*store, alert,
                              keep != nullptr ? keep : &served)) {
        return;
      }
      if (keep == nullptr) {
        const std::string diff =
            CompareServed(served.graph_json, served.state,
                          first_round[i / 2].graph_json,
                          first_round[i / 2].state);
        checks.Expect(diff.empty(), "repeat_identical",
                      "alert " + std::to_string(alert.id) + ": " + diff);
      }
      return;
    }
    // An ack means durable, not yet visible: the scheduler applies the
    // queued batches asynchronously. Poll `stats` until they landed
    // before backtracking from the chain's last event (a write into a
    // file).
    const int64_t t_wait = NowNs();
    for (;;) {
      const auto st =
          client->Call("{\"op\":\"stats\"}", "HandleLine/stats");
      if (!st) return;
      const std::string pending = CheckApplied(
          st->GetUint("ingested_total") - stats0.ingested_total, events_sent);
      if (pending.empty()) break;
      if (NsToS(NowNs() - t_wait) > 10) {
        checks.Expect(false, "ingest_applied", pending + " after 10 s");
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    s->visible_ms.push_back(NsToMs(NowNs() - t_wait));
    ServedSession chain;
    if (!client->RunSession(*store, chain_end, &chain)) return;
    std::vector<EventId> planted;
    for (size_t k = 0; k < kChainEvents; ++k) {
      planted.push_back(chain_first + k);
    }
    const std::string diff = CheckChainInGraph(chain.graph_json, planted);
    checks.Expect(diff.empty(), "planted_chain_found",
                  "chain ending at event " + std::to_string(chain_end.id) +
                      ": " + diff);
  };

  const auto round = [&](DaemonSamples* s, bool first, size_t n) {
    Client client(&handler, s, &checks);
    SpanLog* log = SpanLog::Active();
    generator.NextDay();
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      if (log != nullptr) log->SetRequest(static_cast<uint32_t>(i + 1));
      iteration(&client, s, i,
                first && i % 2 == 0 ? &first_round[i / 2] : nullptr);
    }
    s->loop_s += NsToS(NowNs() - t0);
  };

  {
    DaemonSamples warm;
    round(&warm, /*first=*/true, kWarmUpIterations);
  }
  // Timed rounds, as many on every build (TimedRounds): the manager keeps
  // every session it served, so later rounds run over more state. The
  // first keeps every served graph for the checks; later rounds must
  // serve the same graphs again. The scheduler interleaves polls with
  // quanta on its own thread, so which batches a poll sees varies from
  // round to round: the metrics pool every round's samples (thousands of
  // gaps, about a thousand sessions). With --trace 1 a traced round
  // follows each untraced one, so both kinds meet the same growth.
  DaemonSamples timed;
  DaemonSamples traced;
  CounterSums counters({aptrace::obs::names::kWalSyncs,
                        aptrace::obs::names::kWalAppendedBytes,
                        aptrace::obs::names::kWalAppendedEvents,
                        aptrace::obs::names::kServiceQuanta,
                        aptrace::obs::names::kServiceBackpressureStalls,
                        aptrace::obs::names::kExecutorStaleWindows},
                       {aptrace::obs::names::kSessionStepLatency});
  StoreSums store_sums;
  double peak_rss_mb = 0;
  uint64_t first_round_sessions = 0;
  const int rounds = TimedRounds(
      args, args.trace ? kRoundsPerSecond / 2 : kRoundsPerSecond,
      kMinDaemonRounds);
  for (int r = 0; r < rounds; ++r) {
    round(&timed, /*first=*/r == 0, kIterationsPerRound);
    if (r == 0) {
      peak_rss_mb = PeakRssMb();
      first_round_sessions = timed.sessions;
    }
    if (!args.trace) continue;
    SpanLog::SetActive(&log);
    counters.Begin();
    const aptrace::StoreStats before = store->stats();
    round(&traced, false, kIterationsPerRound);
    store_sums.Add(before, store->stats());
    counters.End();
    SpanLog::SetActive(nullptr);
  }
  std::fprintf(stderr,
               "daemon_ingest: %d timed round(s), %llu sessions, %.3f s\n",
               rounds, static_cast<unsigned long long>(timed.sessions),
               timed.loop_s);

  // Drain: every acknowledged batch is applied once the scheduler joins.
  manager->StopAndJoin();
  const aptrace::service::ServiceStats stats1 = manager->stats();
  checks.Expect(CheckEventCounts(events_sent,
                                 stats1.ingested_total - stats0.ingested_total,
                                 store->NumEvents() - base_events)
                    .empty(),
                "event_counts_agree",
                CheckEventCounts(events_sent,
                                 stats1.ingested_total - stats0.ingested_total,
                                 store->NumEvents() - base_events));
  checks.Expect(stats1.wal_last_seq == last_wal_seq, "wal_seq_consecutive",
                "manager wal_last_seq differs from the last ack");

  // Served graphs against in-process replays of the same script and
  // start event (spans in the traced run: core.start_ms_p50 and
  // graph.json_ms_p50 come from these replays).
  if (args.trace) SpanLog::SetActive(&log);
  for (const ServedSession& served : first_round) {
    std::string state;
    const std::string reference =
        ReferenceGraphJson(*store, served.alert, &state);
    const std::string diff =
        CompareServed(served.graph_json, served.state, reference, state);
    checks.Expect(diff.empty(), "served_equals_inprocess",
                  "alert " + std::to_string(served.alert.id) + ": " + diff);
  }
  SpanLog::SetActive(nullptr);
  // Recovery: a store rebuilt from the data dir holds the same events.
  {
    auto again = aptrace::OpenDataDir(env, dir.path(), trace_path, {});
    const std::string diff = again.ok()
                                 ? CompareStores(*again->store, *store)
                                 : again.status().ToString();
    checks.Expect(diff.empty(), "recovered_store_equal", diff);
  }

  if (!args.trace) {
    result.attempted = timed.ops;
    result.failed = timed.failed;
    result.Add("setup_s", setup_s, "s");
    result.AddExtra("setup_wall_s", setup_wall_s, "s");
    result.Add("queries_per_s",
               Ratio(static_cast<double>(timed.sessions), timed.loop_s),
               "1/s");
    result.Add("first_update_ms_p50", Median(timed.first_update_ms), "ms");
    result.Add("update_gap_ms_p50", Median(timed.gap_ms), "ms");
    result.Add("update_gap_ms_p99", Percentile(timed.gap_ms, 99), "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.AddExtra("ingest_events_per_s",
                    Ratio(static_cast<double>(timed.events_acked),
                          Sum(timed.ingest_ack_ms) / 1000.0),
                    "events/s");
    result.AddExtra("ingest_ack_ms_p50", Median(timed.ingest_ack_ms), "ms");
    result.AddExtra("ingest_visible_ms_p50", Median(timed.visible_ms), "ms");
    result.AddExtra("rss_growth_mb_per_session",
                    Ratio(PeakRssMb() - peak_rss_mb,
                          static_cast<double>(timed.sessions -
                                              first_round_sessions)),
                    "MB");
  } else {
    SpanLog::SetActive(&log);
    // Scripts compiled on their own for bdl.compile_us_p50.
    for (const Event& alert : alerts) {
      Span span("bdl", "bdl::CompileBdl");
      (void)aptrace::bdl::CompileBdl(ScriptFor(*store, alert));
    }
    const double seal_s = TimeCopySeal(*store);
    SpanLog::SetActive(nullptr);
    result.attempted = traced.ops;
    result.failed = traced.failed;
    const double traced_sessions = static_cast<double>(traced.sessions);
    result.Add("obs.trace_overhead_ratio", Ratio(traced.loop_s, timed.loop_s),
               "ratio");
    result.Add("workload.generate_s", generate_s, "s");
    result.Add("storage.seal_s", seal_s, "s");
    result.Add("storage.wal_syncs",
               counters.Get(aptrace::obs::names::kWalSyncs), "count");
    result.Add("storage.wal_bytes_per_event",
               Ratio(counters.Get(aptrace::obs::names::kWalAppendedBytes),
                     counters.Get(aptrace::obs::names::kWalAppendedEvents)),
               "bytes");
    result.Add("bdl.compile_us_p50", Median(log.DurationsUs("bdl::CompileBdl")),
               "us");
    result.Add("core.start_ms_p50",
               Median(log.DurationsUs("Session::Start")) / 1000.0, "ms");
    result.Add("core.step_s",
               counters.Get(aptrace::obs::names::kSessionStepLatency), "s");
    result.Add("core.stale_windows",
               counters.Get(aptrace::obs::names::kExecutorStaleWindows),
               "count");
    result.Add("core.windows_per_query",
               Ratio(static_cast<double>(traced.windows), traced_sessions),
               "count");
    result.Add("core.useful_window_ratio",
               Ratio(static_cast<double>(traced.batches),
                     static_cast<double>(traced.windows)),
               "ratio");
    result.Add("graph.json_ms_p50",
               Median(log.DurationsUs("WriteGraphJson")) / 1000.0, "ms");
    // Graph sizes of the served alert sessions, read from the graph op.
    std::vector<double> nodes;
    std::vector<double> edges;
    for (const ServedSession& served : first_round) {
      auto parsed = aptrace::service::ParseJson(served.graph_json);
      if (!parsed.ok()) continue;
      const JsonValue* n = parsed.value().Find("nodes");
      const JsonValue* e = parsed.value().Find("edges");
      if (n != nullptr) nodes.push_back(static_cast<double>(n->items.size()));
      if (e != nullptr) edges.push_back(static_cast<double>(e->items.size()));
    }
    result.Add("graph.nodes_p50", Median(nodes), "count");
    result.Add("graph.edges_per_query",
               Ratio(Sum(edges), static_cast<double>(edges.size())), "count");
    AddStoreLayerMetrics(store_sums, traced_sessions, &result);
    result.Add("service.open_ms_p50", Median(traced.open_ms), "ms");
    result.Add("service.poll_us_p50", Median(traced.poll_us), "us");
    result.Add("service.ingest_ms_p50", Median(traced.ingest_ack_ms), "ms");
    result.Add("service.graph_ms_p50", Median(traced.graph_ms), "ms");
    result.Add("service.useful_poll_ratio",
               Ratio(static_cast<double>(traced.useful_polls),
                     static_cast<double>(traced.polls)),
               "ratio");
    result.Add("service.quanta",
               counters.Get(aptrace::obs::names::kServiceQuanta), "count");
    result.Add("service.backpressure_stalls",
               counters.Get(aptrace::obs::names::kServiceBackpressureStalls),
               "count");
    WriteSpans(log, args);
  }
  manager.reset();
  return result;
}

}  // namespace perfbench

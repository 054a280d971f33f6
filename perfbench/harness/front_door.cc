// front_door: a closed loop of QueryClients over loopback TCP against one
// QueryServer with default Options. Every client queries one 32x32
// shared-catalog array with a seeded mix: 60% one-chunk Subsample, 20%
// whole-array Filter, 10% grand Aggregate, 10% single-cell insert. The
// engine work per query is small, so the request path dominates: parse,
// admission, fair scheduling, snapshot, frames, polling and fetch.
//
// The op count is fixed per run (it depends on --seconds only), so the
// history depth every snapshot replays ends at the same value each run.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>  // closed-loop client threads
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "net/tcp_transport.h"
#include "query/session.h"
#include "server/query_client.h"
#include "server/query_server.h"
#include "workloads.h"

namespace scidb {
namespace perfbench {
namespace {

using server::QueryClient;
using server::QueryServer;
using server::SharedCatalog;

constexpr int kClients = 4;
constexpr int kServerNode = 0;
constexpr int64_t kSide = 32;
constexpr int64_t kChunk = 16;
constexpr int64_t kCells = kSide * kSide;
// Ops per client per requested second. Latency grows with history depth
// (every snapshot replays it), so a run lasts longer than --seconds: about
// 25 s for 20 s on a 4-vCPU x86 host at the seed commit.
constexpr int kOpsPerClientSecond = 150;
// Set-ups per run: half before the loop, half after it, so they sample
// a noisy host at two moments.
constexpr int kSetupReps = 9;
constexpr char kArray[] = "S";

// Statements 0..3: Subsample of one chunk; 4: Filter; 5: Aggregate.
std::vector<std::string> ReadStatements() {
  std::vector<std::string> out;
  for (int64_t ci = 1; ci <= kSide; ci += kChunk) {
    for (int64_t cj = 1; cj <= kSide; cj += kChunk) {
      out.push_back("select Subsample(S, i >= " + std::to_string(ci) +
                    " and i <= " + std::to_string(ci + kChunk - 1) +
                    " and j >= " + std::to_string(cj) + " and j <= " +
                    std::to_string(cj + kChunk - 1) + ")");
    }
  }
  out.push_back("select Filter(S, v > 50)");
  out.push_back("select Aggregate(S, {}, avg(v))");
  return out;
}
constexpr int kFilterStmt = 4;
constexpr int kAggregateStmt = 5;

struct Op {
  int stmt = -1;  // read statement index, -1 = insert
  Coordinates cell;
  double value = 0;  // k/4: exact in decimal, so the AQL literal is exact
};

// What one op returned, kept for the post-loop oracle.
struct Record {
  int stmt = -1;
  int64_t epoch = 0;
  uint64_t fingerprint = 0;
  Coordinates cell;
  double value = 0;
  uint64_t op = 0;          // trace op id
  uint64_t await_span = 0;  // parent for the explain-analyze graft
  uint64_t await_start = 0;
};

struct ClientLog {
  std::vector<Record> records;
  Sample latency_us, submit_us, await_us, insert_us;
  int64_t attempted = 0, failed = 0, completed = 0, read_cells = 0;
  int64_t chunks_fetched = 0, reads = 0;
  int64_t corrupted = 0;
};

ArraySchema SharedSchema() {
  return ArraySchema(kArray, {{"i", 1, kSide, kChunk}, {"j", 1, kSide, kChunk}},
                     {{"v", DataType::kDouble, true, false}}, true);
}

struct Deployment {
  std::unique_ptr<net::LoopbackTcpTransport> transport;
  std::unique_ptr<QueryServer> server;
  std::vector<std::unique_ptr<QueryClient>> clients;

  // The transport stops first: its reader threads call into the clients
  // and the server until Shutdown returns.
  ~Deployment() {
    if (transport) transport->Shutdown();
    if (server) server->Shutdown();
    clients.clear();
    server.reset();
  }
};

std::unique_ptr<Deployment> Deploy(const std::vector<CellUpdate>& initial) {
  auto d = std::make_unique<Deployment>();
  d->transport = std::make_unique<net::LoopbackTcpTransport>();
  d->server = std::make_unique<QueryServer>(d->transport.get(), kServerNode,
                                            QueryServer::Options{});
  SCIDB_CHECK(d->server->Start().ok());
  SCIDB_CHECK(d->server->catalog()->Define(SharedSchema()).ok());
  SCIDB_CHECK(d->server->catalog()->CommitCells(kArray, initial).ok());
  for (int c = 0; c < kClients; ++c) {
    d->clients.push_back(std::make_unique<QueryClient>(
        d->transport.get(), 1 + c, kServerNode));
    SCIDB_CHECK(d->clients.back()->Bind().ok());
    // Ready means connected with a server-side session: one read each.
    Result<QueryClient::Outcome> warm =
        d->clients.back()->Execute("select Aggregate(S, {}, count(v))");
    SCIDB_CHECK(warm.ok() && warm.value().status.ok());
  }
  return d;
}

void RunClient(QueryClient* client, const std::vector<Op>& ops,
               const std::vector<std::string>& stmts, Tracer* tracer,
               bool corrupt, ClientLog* log) {
  for (const Op& op : ops) {
    const std::string text =
        op.stmt >= 0 ? stmts[static_cast<size_t>(op.stmt)]
                     : "insert S [" + std::to_string(op.cell[0]) + ", " +
                           std::to_string(op.cell[1]) + "] values (" +
                           Fmt(op.value, 17) + ")";
    const uint64_t trace_op = tracer->NewOp();
    ScopedSpan root(tracer, trace_op, 0,
                    op.stmt < 0 ? "insert" : "query", Layer::kBench);
    const uint64_t t0 = SteadyNowNs();
    Result<uint64_t> qid = Status::Internal("not submitted");
    for (;;) {
      ScopedSpan submit(tracer, trace_op, root.id(), "QueryClient::Submit",
                        Layer::kNet);
      qid = client->Submit(text);
      // A refused submit is a failed op; the op is retried so the
      // insert count (and so the history depth) stays fixed.
      if (qid.ok() || !qid.status().IsBusy()) break;
      ++log->attempted;
      ++log->failed;
    }
    const uint64_t t1 = SteadyNowNs();
    ScopedSpan await(tracer, trace_op, root.id(), "QueryClient::Await",
                     Layer::kServer);
    Result<QueryClient::Outcome> out =
        qid.ok() ? client->Await(qid.value())
                 : Result<QueryClient::Outcome>(qid.status());
    const uint64_t t2 = SteadyNowNs();
    await.Close();
    root.Close();
    ++log->attempted;
    const bool ok = out.ok() && out.value().status.ok() &&
                    (op.stmt < 0 || out.value().array != nullptr);
    if (!ok) {
      ++log->failed;
      continue;
    }
    ++log->completed;
    log->latency_us.Add(static_cast<double>(t2 - t0) * 1e-3);
    log->submit_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    log->await_us.Add(static_cast<double>(t2 - t1) * 1e-3);
    Record rec;
    rec.stmt = op.stmt;
    rec.epoch = out.value().snapshot_epoch;
    rec.op = trace_op;
    rec.await_span = await.id();
    rec.await_start = t1;
    if (op.stmt < 0) {
      log->insert_us.Add(static_cast<double>(t2 - t0) * 1e-3);
      rec.cell = op.cell;
      rec.value = op.value;
    } else {
      MemArray& arr = *out.value().array;
      if (corrupt && log->corrupted == 0 && arr.CellCount() > 0) {
        CorruptOneCell(&arr);
        ++log->corrupted;
      }
      rec.fingerprint = Fingerprint(arr);
      log->read_cells += kCells;
      log->chunks_fetched += static_cast<int64_t>(out.value().chunks_fetched);
      ++log->reads;
    }
    log->records.push_back(std::move(rec));
  }
}

}  // namespace

Report RunFrontDoor(const Config& cfg, Tracer* tracer) {
  Report rep;
  const std::vector<std::string> stmts = ReadStatements();
  Rng rng(MixSeed(cfg.seed, 11));
  std::vector<CellUpdate> initial;
  for (int64_t i = 1; i <= kSide; ++i) {
    for (int64_t j = 1; j <= kSide; ++j) {
      initial.push_back(CellUpdate::Set(
          {i, j}, {Value(static_cast<double>(rng.UniformInt(0, 400)) / 4)}));
    }
  }
  const int ops_per_client = std::max(
      8, static_cast<int>(kOpsPerClientSecond * cfg.seconds));
  std::vector<std::vector<Op>> plans(kClients);
  for (auto& plan : plans) {
    for (int k = 0; k < ops_per_client; ++k) {
      const int64_t roll = rng.UniformInt(0, 99);
      Op op;
      if (roll < 60) {
        op.stmt = static_cast<int>(rng.UniformInt(0, 3));
      } else if (roll < 80) {
        op.stmt = kFilterStmt;
      } else if (roll < 90) {
        op.stmt = kAggregateStmt;
      } else {
        op.cell = {rng.UniformInt(1, kSide), rng.UniformInt(1, kSide)};
        op.value = static_cast<double>(rng.UniformInt(0, 400)) / 4;
      }
      plan.push_back(op);
    }
  }

  // ---- set-up, several times; the last deployment serves the loop ----
  Sample setup_s;
  std::unique_ptr<Deployment> dep;
  auto set_up = [&]() {
    const double t0 = NowS();
    std::unique_ptr<Deployment> d = Deploy(initial);
    setup_s.Add(NowS() - t0);
    return d;
  };
  const int reps = cfg.setup_reps > 0 ? cfg.setup_reps : kSetupReps;
  for (int r = 0; r < (reps + 1) / 2; ++r) {
    dep.reset();
    dep = set_up();
  }
  SharedCatalog* catalog = dep->server->catalog();

  // ---- timed closed loop ----
  std::vector<ClientLog> logs(kClients);
  MetricsDelta delta;
  const double t_start = NowS();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, dep->clients[c].get(),
                           std::cref(plans[c]), std::cref(stmts), tracer,
                           cfg.corrupt && c == 0, &logs[c]);
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = NowS() - t_start;
  delta.Stop();

  ClientLog all;
  for (const ClientLog& l : logs) {
    all.records.insert(all.records.end(), l.records.begin(), l.records.end());
    all.latency_us.Append(l.latency_us);
    all.submit_us.Append(l.submit_us);
    all.await_us.Append(l.await_us);
    all.insert_us.Append(l.insert_us);
    all.attempted += l.attempted;
    all.failed += l.failed;
    all.completed += l.completed;
    all.read_cells += l.read_cells;
    all.chunks_fetched += l.chunks_fetched;
    all.reads += l.reads;
  }
  rep.attempted = all.attempted;
  rep.failed = all.failed;

  // ---- oracle: a direct width-1 Session over SnapshotAt(epoch) ----
  // Inserts: each commit epoch is distinct, and the snapshot at that
  // epoch holds the inserted value.
  std::map<int64_t, std::vector<const Record*>> reads_at;
  std::set<int64_t> commit_epochs;
  int64_t mismatches = 0;
  for (const Record& r : all.records) {
    if (r.stmt >= 0) {
      reads_at[r.epoch].push_back(&r);
      continue;
    }
    bool ok = commit_epochs.insert(r.epoch).second;
    Result<MemArray> snap = catalog->SnapshotAt(kArray, r.epoch);
    ok = ok && snap.ok();
    if (ok) {
      auto cell = snap.value().GetCell(r.cell);
      ok = cell.has_value() && (*cell)[0].is_double() &&
           (*cell)[0].double_value() == r.value;
    }
    if (!ok) ++mismatches;
  }
  Session oracle;
  for (const auto& [epoch, recs] : reads_at) {
    const int64_t e = epoch;
    oracle.set_array_resolver([catalog, e](const std::string& name) {
      return catalog->SnapshotAt(name, e);
    });
    std::map<int, uint64_t> want;
    std::map<int, std::shared_ptr<const QueryTrace>> explain;
    for (const Record* r : recs) {
      if (want.count(r->stmt) == 0) {
        const std::string& text = stmts[static_cast<size_t>(r->stmt)];
        Result<QueryResult> q = oracle.Execute(text);
        want[r->stmt] = q.ok() && q.value().array != nullptr
                            ? Fingerprint(*q.value().array)
                            : 0;
        if (tracer->enabled()) {
          Result<QueryResult> x = oracle.Execute("explain analyze " + text);
          if (x.ok()) explain[r->stmt] = x.value().trace;
        }
      }
      if (r->fingerprint != want[r->stmt]) ++mismatches;
      // Traced: the server ran this statement at this epoch inside the
      // Await span; the oracle's explain-analyze of the same statement
      // over the same snapshot estimates its parse / optimize /
      // snapshot / operator split.
      auto it = explain.find(r->stmt);
      if (it != explain.end() && it->second != nullptr) {
        tracer->AddQueryTrace(r->op, r->await_span, *it->second,
                              r->await_start);
      }
    }
  }
  oracle.set_array_resolver(nullptr);
  rep.failed += mismatches;
  rep.mismatches = mismatches;

  for (int r = (reps + 1) / 2; r < reps; ++r) set_up().reset();
  rep.Set("setup_s", setup_s.Median(), "s");
  rep.Set("qps", static_cast<double>(all.completed) / wall_s, "1/s");
  rep.Set("cells_per_s", static_cast<double>(all.read_cells) / wall_s,
          "cells/s");
  rep.Info("load_cells_per_s",
           Fmt(1e6 / all.insert_us.Median(), 10) +
               " cells/s (1e6 / median latency of " +
               std::to_string(all.insert_us.n()) + " single-cell inserts)");
  SetLatency(&rep, all.latency_us,
             "one statement, client submit -> released; " +
                 std::to_string(kClients) + " closed-loop clients x " +
                 std::to_string(ops_per_client) + " ops");
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");

  const int64_t final_epoch = catalog->epoch();
  {
    const QueryServer::Options opts;
    rep.Info("context",
             std::to_string(kSide) + "x" + std::to_string(kSide) +
                 " doubles (" + std::to_string(kCells) + " cells, " +
                 std::to_string(kCells / (kChunk * kChunk)) +
                 " chunks) in a shared catalog, in memory; loopback tcp; "
                 "QueryServer default Options (pool width " +
                 std::to_string(opts.pool_width) + ", per-query " +
                 std::to_string(opts.per_query_parallelism) +
                 ", max concurrent " +
                 std::to_string(opts.max_concurrent_queries) +
                 ", slice morsels " + std::to_string(opts.slice_morsels) +
                 "); QueryClient default Options");
  }
  rep.Info("final_epoch", std::to_string(final_epoch));

  // ---- per-layer activity (reported by traced runs) ----
  const double ops = static_cast<double>(std::max<int64_t>(all.completed, 1));
  const double reads = static_cast<double>(std::max<int64_t>(all.reads, 1));
  rep.Activity("server.submit_us", all.submit_us.Median(), "us");
  rep.Activity("server.await_us", all.await_us.Median(), "us");
  rep.Activity("server.chunks_fetched_per_query",
               static_cast<double>(all.chunks_fetched) / reads, "count");
  rep.Activity("server.server_latency_p50_us",
               delta.HistQuantile("scidb.server.query_latency_us", 0.5),
               "us");
  rep.Activity("server.scheduler_slices_per_query",
               static_cast<double>(
                   delta.Counter("scidb.server.scheduler_slices")) / reads,
               "count");
  rep.Activity("server.admission_rejects",
               static_cast<double>(
                   delta.Counter("scidb.server.admission_rejects")),
               "count");
  rep.Activity("net.frames_per_op.front_door",
               static_cast<double>(delta.Counter("scidb.net.frames_sent")) /
                   ops, "count");
  rep.Activity("net.bytes_per_op.front_door",
               static_cast<double>(delta.Counter("scidb.net.bytes_sent")) /
                   ops, "B");
  rep.Activity("net.retries.front_door",
               static_cast<double>(delta.Counter("scidb.net.retries")),
               "count");
  {
    // Snapshot and commit cost at the run's final history depth.
    Sample snap_us, commit_us, exec_us;
    for (int k = 0; k < 20; ++k) {
      double t0 = NowS();
      SCIDB_CHECK(catalog->SnapshotAt(kArray, final_epoch).ok());
      snap_us.Add((NowS() - t0) * 1e6);
    }
    Session direct;
    direct.set_array_resolver([catalog, final_epoch](const std::string& n) {
      return catalog->SnapshotAt(n, final_epoch);
    });
    for (int k = 0; k < 3; ++k) {
      for (const std::string& s : stmts) {
        double t0 = NowS();
        SCIDB_CHECK(direct.Execute(s).ok());
        exec_us.Add((NowS() - t0) * 1e6);
      }
    }
    for (int k = 0; k < 20; ++k) {
      double t0 = NowS();
      SCIDB_CHECK(catalog
                      ->CommitCells(kArray, {CellUpdate::Set(
                                                {1 + k, 1}, {Value(1.0)})})
                      .ok());
      commit_us.Add((NowS() - t0) * 1e6);
    }
    rep.Activity("version.snapshot_us", snap_us.Median(), "us");
    rep.Activity("version.commit_us", commit_us.Median(), "us");
    rep.Activity("query.session_execute_us", exec_us.Median(), "us");
  }
  return rep;
}

}  // namespace perfbench
}  // namespace scidb

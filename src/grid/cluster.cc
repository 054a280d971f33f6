#include "grid/cluster.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "common/byte_io.h"
#include "common/flight_recorder.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "exec/expr_serde.h"
#include "grid/node_service.h"
#include "net/inprocess_transport.h"
#include "net/message.h"
#include "net/tcp_transport.h"
#include "storage/chunk_serde.h"

namespace scidb {

namespace {

// Grid-wide scan counters (scidb.grid.*). Bumped once per parallel
// operator at the coordinator — never per cell inside a worker, so the
// hot loops stay free of shared atomics.
struct GridMetrics {
  Counter* const cells_scanned =
      Metrics::Instance().counter("scidb.grid.cells_scanned");
  Counter* const bytes_scanned =
      Metrics::Instance().counter("scidb.grid.bytes_scanned");
  Counter* const parallel_ops =
      Metrics::Instance().counter("scidb.grid.parallel_ops");
  // Replication & failover (DESIGN.md §13).
  Counter* const failover_reads =
      Metrics::Instance().counter("scidb.grid.failover_reads");
  Counter* const nodes_declared_dead =
      Metrics::Instance().counter("scidb.grid.nodes_declared_dead");
  Counter* const rereplicated_chunks =
      Metrics::Instance().counter("scidb.grid.rereplicated_chunks");
  Counter* const rereplicated_bytes =
      Metrics::Instance().counter("scidb.grid.rereplicated_bytes");

  static const GridMetrics& Get() {
    static auto* const m = new GridMetrics();
    return *m;
  }
};

// RPC outcomes that mean "the peer may be gone" — the ones failover and
// failure detection react to. Anything else (Invalid, Corruption, a
// server-side error Status) is a real answer from a live node.
bool IsPeerFailure(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

// Folds the chunks of `part` into `*into` — the one shard union behind
// every parallel operator's result and FetchSlot's failover merge. A
// chunk whose origin is still free is adopted whole (shared, not
// copied). When two parts hold the same origin — a boundary replica
// (ReplicateBoundaries) beside its owner's chunk — the incoming present
// cells are upserted into a private copy (MemArray::UpsertChunk), so no
// cell is lost and a cell held twice counts once. Empty chunks add
// nothing.
Status UnionInto(const MemArray& part, MemArray* into) {
  for (const auto& [origin, chunk] : part.chunks()) {
    RETURN_NOT_OK(into->UpsertChunk(chunk));
  }
  return Status::OK();
}

// Re-shards `shards` onto `placement` at load epoch `time`: the one
// rebuild behind Repartition and ParallelSjoin's staging copy. Every
// held copy of a chunk is upserted (MemArray::UpsertChunk) onto each node
// of the chunk's new replica set: the first lands as a private copy
// (shards never share a chunk, since each node's service mutates its
// shard under its own lock), later ones add their present cells to it.
// Copies at k > 1 are identical, and a boundary replica holds a subset of
// its owner's chunk, so the union loses nothing. `*moved` counts the
// bytes landing on a node that did not already hold the chunk. `placed`,
// when set, receives each chunk's new replica set.
Result<std::vector<MemArray>> Reshard(
    const std::vector<MemArray>& shards, const ArraySchema& schema,
    const ReplicaPlacement& placement, int64_t time, int64_t* moved,
    std::map<Coordinates, std::vector<int>>* placed) {
  // Every copy of each chunk, by holding node.
  std::map<Coordinates, std::map<int, const Chunk*>> copies;
  for (size_t node = 0; node < shards.size(); ++node) {
    for (const auto& [origin, chunk] : shards[node].chunks()) {
      copies[origin][static_cast<int>(node)] = chunk.get();
    }
  }
  std::vector<MemArray> next;
  next.reserve(static_cast<size_t>(placement.num_nodes()));
  for (int i = 0; i < placement.num_nodes(); ++i) next.emplace_back(schema);
  for (const auto& [origin, held] : copies) {
    const std::vector<int> dests = placement.ReplicasFor(origin, time);
    for (int d : dests) {
      if (held.count(d) == 0) {
        *moved += static_cast<int64_t>(held.begin()->second->ByteSize());
      }
    }
    for (const auto& [node, chunk] : held) {
      for (int d : dests) {
        RETURN_NOT_OK(next[static_cast<size_t>(d)].UpsertChunk(*chunk));
      }
    }
    if (placed != nullptr) (*placed)[origin] = dests;
  }
  return next;
}

}  // namespace

MetricsSnapshot ClusterMetrics::Labeled() const {
  MetricsSnapshot out;
  for (const NodeMetrics& nm : nodes) {
    if (!nm.reachable) continue;
    for (const MetricsSnapshot::Entry& e : nm.snapshot.entries) {
      MetricsSnapshot::Entry labeled = e;
      labeled.name = "node" + std::to_string(nm.node) + "." + e.name;
      out.entries.push_back(std::move(labeled));
    }
  }
  return out;
}

DistributedArray::DistributedArray(
    ArraySchema schema, std::shared_ptr<const Partitioner> partitioner,
    GridNetOptions net)
    : schema_(std::move(schema)),
      partitioner_(std::move(partitioner)),
      net_opts_(std::move(net)) {
  SCIDB_CHECK(partitioner_ != nullptr);
  clock_ = net_opts_.clock ? net_opts_.clock : TraceClock(SteadyNowNs);
  placement_ =
      std::make_unique<ReplicaPlacement>(partitioner_, net_opts_.replication);
  shards_.reserve(static_cast<size_t>(num_nodes()));
  for (int i = 0; i < num_nodes(); ++i) shards_.emplace_back(schema_);
  {
    MutexLock lk(stats_mu_);
    stats_.resize(static_cast<size_t>(num_nodes()));
  }
  {
    MutexLock lk(meta_mu_);
    consec_fail_.assign(static_cast<size_t>(num_nodes()), 0);
  }
  InitNet();
}

DistributedArray::~DistributedArray() { ShutdownNet(); }

void DistributedArray::InitNet() {
  switch (net_opts_.transport) {
    case GridNetOptions::TransportKind::kInline:
      base_transport_ = std::make_unique<net::InProcessTransport>(
          net::InProcessTransport::Mode::kInline);
      break;
    case GridNetOptions::TransportKind::kThreaded:
      base_transport_ = std::make_unique<net::InProcessTransport>(
          net::InProcessTransport::Mode::kThreaded);
      break;
    case GridNetOptions::TransportKind::kTcp:
      base_transport_ = std::make_unique<net::LoopbackTcpTransport>();
      break;
  }
  transport_ = base_transport_.get();
  if (net_opts_.fault_seed != 0) {
    fault_ = std::make_unique<net::FaultInjectingTransport>(
        base_transport_.get(), net_opts_.fault_profile, net_opts_.fault_seed);
    transport_ = fault_.get();
  }
  // Servers share the resolved clock so server-side handler spans are
  // deterministic under VirtualTime, like every other timing here.
  net::RpcServer::Options sopts;
  sopts.clock = clock_;
  for (int node = 0; node < num_nodes(); ++node) {
    services_.push_back(std::make_unique<GridNodeService>(this, node));
    servers_.push_back(
        std::make_unique<net::RpcServer>(transport_, node, sopts));
    services_.back()->Install(servers_.back().get());
    Status bound =
        net::BindNode(transport_, node, servers_.back().get(), nullptr);
    SCIDB_CHECK(bound.ok());
  }
  net::RpcClient::Options copts;
  copts.clock = net_opts_.clock;
  copts.sleep = net_opts_.sleep;
  copts.jitter_seed =
      net_opts_.fault_seed != 0 ? net_opts_.fault_seed : uint64_t{1};
  copts.spans = &client_spans_;
  client_ = std::make_unique<net::RpcClient>(transport_, coordinator_id(),
                                             copts);
  Status bound =
      net::BindNode(transport_, coordinator_id(), nullptr, client_.get());
  SCIDB_CHECK(bound.ok());
}

void DistributedArray::ShutdownNet() {
  if (transport_ != nullptr) transport_->Shutdown();
  client_.reset();
  servers_.clear();
  services_.clear();
  transport_ = nullptr;
  fault_.reset();
  base_transport_.reset();
}

ThreadPool* DistributedArray::FanoutPool() {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_nodes());
  return pool_.get();
}

Status DistributedArray::TracedOp(
    const char* label,
    const std::function<Status(const TraceContext&, OpTally*)>& body) {
  TraceNode* child = nullptr;
  TraceContext ctx;  // inactive (all-zero) unless a trace node is attached
  if (trace_node_ != nullptr) {
    child = trace_node_->AddChild();
    child->label = label;
    ctx.trace_id = NextTraceId();
    ctx.span_id = NextSpanId();
  }
  OpTally tally;
  Status st;
  {
    TraceSpan span(clock_, child);
    st = body(ctx, &tally);
  }
  if (child != nullptr) {
    child->AddNote("net.rpcs", static_cast<double>(tally.rpcs));
    if (tally.failovers.load() > 0) {
      child->AddNote("failover", static_cast<double>(tally.failovers.load()));
    }
    if (!st.ok()) child->AddNote("err", 1);
  }
  StitchOpTrace(child, ctx);
  return st;
}

void DistributedArray::StitchOpTrace(TraceNode* child,
                                     const TraceContext& ctx) const {
  if (child == nullptr || !ctx.active()) return;
  // Every node gets a sub-tree even when it served no RPC of this trace
  // (or was unreachable for the stitch), so the tree shape stays
  // comparable across runs and transports.
  std::vector<TraceNode*> node_trees;
  for (int node = 0; node < num_nodes(); ++node) {
    node_trees.push_back(child->AddChild());
    node_trees.back()->label = "node " + std::to_string(node);
  }
  // Each client rpc.* span moves under its destination's sub-tree; its
  // dst note is dropped, since the parent label already says it.
  std::map<uint64_t, TraceNode*> calls;
  for (TraceNode& cs : client_spans_.Take(ctx.trace_id)) {
    const double* dst = cs.FindNote("dst");
    if (dst == nullptr || *dst < 0 || *dst >= num_nodes()) continue;
    TraceNode* tree = node_trees[static_cast<size_t>(*dst)];
    std::erase_if(cs.notes, [](const auto& n) { return n.first == "dst"; });
    tree->children.push_back(std::make_unique<TraceNode>(std::move(cs)));
    calls[tree->children.back()->span_id] = tree->children.back().get();
  }
  // The stitch's own TraceGet RPCs are deliberately untraced: they must
  // not add spans to the trace they are collecting. Declared-dead nodes
  // are skipped outright rather than burning a deadline each.
  const std::set<int> dead = DeadSnapshot();
  net::CallOptions co = net_opts_.call;
  co.trace = {};
  for (int node = 0; node < num_nodes(); ++node) {
    if (dead.count(node) != 0) continue;
    net::TraceGetRequest req;
    req.trace_id = ctx.trace_id;
    Result<std::vector<uint8_t>> r = client_->Call(
        node, net::MessageType::kTraceGet, req.EncodePayload(), co);
    if (!r.ok()) continue;
    Result<net::TraceGetResponse> resp =
        net::TraceGetResponse::Decode(r.value());
    if (!resp.ok()) continue;
    // Server.* handler spans move under the rpc.* span they parent onto:
    // more than one when the network duplicated or the client retried a
    // delivered request.
    for (TraceNode& ss : resp.value().spans) {
      auto call = calls.find(ss.parent_span_id);
      if (call == calls.end()) continue;
      call->second->children.push_back(
          std::make_unique<TraceNode>(std::move(ss)));
    }
  }
}

ClusterMetrics DistributedArray::ScrapeClusterMetrics(
    bool include_process) const {
  ClusterMetrics out;
  for (int node = 0; node < num_nodes(); ++node) {
    ClusterMetrics::NodeMetrics nm;
    nm.node = node;
    net::MetricsGetRequest req;
    req.include_process = include_process ? 1 : 0;
    Result<std::vector<uint8_t>> r = client_->Call(
        node, net::MessageType::kMetricsGet, req.EncodePayload(),
        net_opts_.call);
    if (r.ok()) {
      Result<net::MetricsGetResponse> resp =
          net::MetricsGetResponse::Decode(r.value());
      if (resp.ok()) {
        std::string json(resp.value().json.begin(), resp.value().json.end());
        Result<MetricsSnapshot> snap = SnapshotFromJson(json);
        if (snap.ok()) {
          nm.snapshot = std::move(snap.value());
          nm.reachable = true;
        }
      }
    }
    out.nodes.push_back(std::move(nm));
  }
  return out;
}

Result<std::vector<FlightEvent>> DistributedArray::FetchFlightEvents(
    int node) const {
  net::TraceGetRequest req;
  req.trace_id = 0;  // no spans wanted, only the flight ring
  req.include_flight = 1;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(node, net::MessageType::kTraceGet,
                                 req.EncodePayload(), net_opts_.call));
  ASSIGN_OR_RETURN(net::TraceGetResponse resp,
                   net::TraceGetResponse::Decode(bytes));
  return std::move(resp.events);
}

Status DistributedArray::PutChunk(int dest, const Chunk& chunk, int64_t time,
                                  const TraceContext& ctx) {
  net::ChunkPutRequest req;
  req.time = time;
  req.chunk_bytes = SerializeChunk(chunk);
  net::CallOptions co = net_opts_.call;
  co.trace = ctx;
  ASSIGN_OR_RETURN(std::vector<uint8_t> ack,
                   client_->Call(dest, net::MessageType::kChunkPut,
                                 req.EncodePayload(), co));
  (void)ack;  // the ack payload is empty; arrival is the information
  return Status::OK();
}

Status DistributedArray::PutCell(int dest, const Coordinates& c,
                                 const std::vector<Value>& values,
                                 int64_t time) {
  // A one-cell chunk travels; the receiving shard upserts just that
  // cell (the presence bitmap carries which cells are real).
  MemArray one(schema_);
  RETURN_NOT_OK(one.SetCell(c, values));
  return PutChunk(dest, *one.chunks().begin()->second, time);
}

Result<MemArray> DistributedArray::FetchShard(int node, const ExprPtr& pred,
                                              const TraceContext& ctx,
                                              int view_of,
                                              const std::set<int>& dead,
                                              const net::CallOptions& call)
    const {
  net::ScanShardRequest req;
  req.view_of = view_of;
  // std::set iterates ascending — exactly the canonical wire order.
  req.suspect_dead.assign(dead.begin(), dead.end());
  if (pred != nullptr) {
    // Function shipping: serialize the predicate at the grid boundary;
    // the message layer carries it as opaque bytes.
    ByteWriter pw;
    EncodeExpr(*pred, &pw);
    req.pred_bytes = pw.Release();
  }
  net::CallOptions co = call;
  co.trace = ctx;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(node, net::MessageType::kScanShard,
                                 req.EncodePayload(), co));
  ASSIGN_OR_RETURN(net::ScanShardResponse resp,
                   net::ScanShardResponse::Decode(bytes));
  MemArray arr(schema_);
  for (const auto& chunk_bytes : resp.chunks) {
    ASSIGN_OR_RETURN(Chunk chunk,
                     DeserializeChunk(chunk_bytes, schema_.attrs()));
    Coordinates origin = arr.ChunkOriginFor(chunk.box().low);
    (*arr.mutable_chunks())[std::move(origin)] =
        std::make_shared<Chunk>(std::move(chunk));
  }
  return arr;
}

Result<MemArray> DistributedArray::FetchSlot(
    int slot, const ExprPtr& pred, const TraceContext& ctx,
    std::atomic<int64_t>* failovers) const {
  const int k = placement_->replication();
  std::set<int> dead = DeadSnapshot();
  const uint64_t start_ns = clock_();
  const uint64_t budget_ns = net_opts_.call.deadline_ns;

  if (dead.count(slot) == 0) {
    // Primary read: when failover is possible the primary attempt gets
    // half the call budget, so a dead primary still leaves time to ask
    // the survivors within the caller's original deadline.
    net::CallOptions co = net_opts_.call;
    if (k > 1) co.deadline_ns = budget_ns / 2;
    Result<MemArray> r = FetchShard(slot, pred, ctx, -1, dead, co);
    if (r.ok()) {
      RecordCallResult(slot, true);
      return r;
    }
    if (!IsPeerFailure(r.status())) return r;
    RecordCallResult(slot, false);
    if (k <= 1) return r;
    dead.insert(slot);
  } else if (k <= 1) {
    return Status::Unavailable("node " + std::to_string(slot) + " is dead");
  }

  // Failover read: every survivor is asked for slot `slot`'s chunks with
  // the suspect set attached; exactly one node serves each chunk (its
  // first live replica), and the union below counts a cell once even if
  // two did. A survivor failing mid-failover joins the suspects and the
  // pass restarts.
  GridMetrics::Get().failover_reads->Inc();
  if (FlightRecorder::enabled()) {
    FlightRecorder::Instance().RecordAt(
        clock_(), FlightEventKind::kFailoverRead, slot,
        static_cast<uint64_t>(slot), static_cast<uint64_t>(dead.size()));
  }
  if (failovers != nullptr) failovers->fetch_add(1);
  for (;;) {
    MemArray merged(schema_);
    bool restart = false;
    for (int n = 0; n < num_nodes(); ++n) {
      if (dead.count(n) != 0) continue;
      const uint64_t elapsed = clock_() - start_ns;
      if (elapsed >= budget_ns) {
        return Status::DeadlineExceeded("failover read for slot " +
                                        std::to_string(slot) +
                                        " exhausted the call deadline");
      }
      net::CallOptions co = net_opts_.call;
      co.deadline_ns = budget_ns - elapsed;
      Result<MemArray> r = FetchShard(n, pred, ctx, slot, dead, co);
      if (!r.ok()) {
        if (!IsPeerFailure(r.status())) return r;
        RecordCallResult(n, false);
        dead.insert(n);
        restart = true;
        break;
      }
      RecordCallResult(n, true);
      RETURN_NOT_OK(UnionInto(r.value(), &merged));
    }
    if (restart) continue;
    if (pred == nullptr) {
      // Unfiltered scans can be audited against the chunk directory:
      // every chunk whose primary is `slot` must have been served by
      // someone, or data really was lost (more than k-1 holders died).
      MutexLock lk(meta_mu_);
      for (const auto& [origin, meta] : chunk_dir_) {
        if (placement_->PrimaryFor(origin, meta.time) != slot) continue;
        if (merged.chunks().count(origin) == 0) {
          return Status::Unavailable(
              "chunk lost: no surviving replica covers slot " +
              std::to_string(slot));
        }
      }
    }
    return merged;
  }
}

Status DistributedArray::PlaceChunk(const Coordinates& origin,
                                    const Chunk& chunk, int64_t time,
                                    const TraceContext& ctx) {
  const int k = placement_->replication();
  if (k <= 1) {
    // The legacy write path, byte for byte: placement is NodeFor at the
    // write's own epoch, no directory, no failure detection.
    int node = partitioner_->NodeFor(origin, time);
    if (node < 0 || node >= num_nodes()) {
      return Status::Internal("partitioner returned node " +
                              std::to_string(node));
    }
    return PutChunk(node, chunk, time, ctx);
  }

  bool existing = false;
  ChunkMeta meta;
  {
    MutexLock lk(meta_mu_);
    auto it = chunk_dir_.find(origin);
    if (it != chunk_dir_.end()) {
      existing = true;
      meta = it->second;
    }
  }
  const std::set<int> dead = DeadSnapshot();

  if (existing) {
    // Updates go to every live holder, strictly: a failed holder write
    // fails the whole operation rather than leaving replicas divergent.
    // (Declared-dead holders are skipped — recovery replaces them.)
    int written = 0;
    for (int h : meta.holders) {
      if (dead.count(h) != 0) continue;
      Status st = PutChunk(h, chunk, meta.time, ctx);
      if (!st.ok()) {
        if (IsPeerFailure(st)) RecordCallResult(h, false);
        return st;
      }
      RecordCallResult(h, true);
      ++written;
    }
    if (written == 0) {
      return Status::Unavailable("every holder of the chunk is dead");
    }
    return Status::OK();
  }

  // Fresh chunk: walk the preference order placing k copies, stepping
  // past dead or unreachable candidates. One successful copy is enough
  // to accept the write; Recover() tops the chunk back up to k.
  const std::vector<int> order = placement_->PreferenceOrder(origin, time);
  std::vector<int> holders;
  Status last = Status::Unavailable("no live node accepted the chunk");
  for (int cand : order) {
    if (static_cast<int>(holders.size()) == k) break;
    if (dead.count(cand) != 0) continue;
    Status st = PutChunk(cand, chunk, time, ctx);
    if (st.ok()) {
      RecordCallResult(cand, true);
      holders.push_back(cand);
      continue;
    }
    if (!IsPeerFailure(st)) return st;
    RecordCallResult(cand, false);
    last = st;
  }
  if (holders.empty()) return last;
  {
    MutexLock lk(meta_mu_);
    ChunkMeta& m = chunk_dir_[origin];
    m.time = time;  // the first write's epoch, sticky (pins placement)
    m.holders = holders;
  }
  return Status::OK();
}

Result<Chunk> DistributedArray::GetChunk(int src,
                                         const Coordinates& origin) const {
  net::ChunkGetRequest req;
  req.origin = origin;
  ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                   client_->Call(src, net::MessageType::kChunkGet,
                                 req.EncodePayload(), net_opts_.call));
  return DeserializeChunk(bytes, schema_.attrs());
}

void DistributedArray::RecordCallResult(int node, bool ok) const {
  if (placement_->replication() <= 1) return;  // legacy grid: no detector
  if (node < 0 || node >= num_nodes()) return;
  bool newly_dead = false;
  int fails = 0;
  {
    MutexLock lk(meta_mu_);
    int& f = consec_fail_[static_cast<size_t>(node)];
    if (ok) {
      f = 0;
      return;
    }
    if (dead_.count(node) != 0) return;  // already declared
    ++f;
    if (f >= net_opts_.dead_after_failures) {
      dead_.insert(node);
      recover_pending_ = true;
      newly_dead = true;
      fails = f;
    }
  }
  if (newly_dead) {
    GridMetrics::Get().nodes_declared_dead->Inc();
    if (FlightRecorder::enabled()) {
      FlightRecorder::Instance().RecordAt(clock_(),
                                          FlightEventKind::kNodeDead, node,
                                          static_cast<uint64_t>(fails));
    }
  }
}

std::set<int> DistributedArray::DeadSnapshot() const {
  MutexLock lk(meta_mu_);
  return dead_;
}

std::set<int> DistributedArray::dead_nodes() const { return DeadSnapshot(); }

int64_t DistributedArray::DirTimeFor(const Coordinates& origin) const {
  MutexLock lk(meta_mu_);
  auto it = chunk_dir_.find(origin);
  return it != chunk_dir_.end() ? it->second.time : 0;
}

void DistributedArray::BroadcastDeadSet() const {
  const std::set<int> dead = DeadSnapshot();
  net::MarkDeadRequest req;
  req.dead.assign(dead.begin(), dead.end());
  for (int n = 0; n < num_nodes(); ++n) {
    if (dead.count(n) != 0) continue;
    // Best-effort: a survivor that misses the broadcast still filters
    // correctly per request (the coordinator attaches its suspect set to
    // every ScanShard).
    (void)client_->Call(  // status-ignored: best-effort broadcast; see above
        n, net::MessageType::kMarkDead, req.EncodePayload(), net_opts_.call);
  }
}

void DistributedArray::MaybeRecover() {
  bool pending;
  {
    MutexLock lk(meta_mu_);
    pending = recover_pending_;
  }
  if (pending) (void)Recover();  // status-ignored: retried on the next op
                                 // via the sticky recover_pending_ flag
}

Result<int64_t> DistributedArray::Recover() {
  {
    MutexLock lk(meta_mu_);
    recover_pending_ = false;
  }
  if (placement_->replication() <= 1) return 0;
  const std::set<int> dead = DeadSnapshot();
  if (dead.empty()) return 0;
  BroadcastDeadSet();
  // Snapshot the directory so no RPC runs under meta_mu_ (the inline
  // transport executes handlers on this thread, and handlers read the
  // directory through DirTimeFor).
  std::vector<std::pair<Coordinates, ChunkMeta>> entries;
  {
    MutexLock lk(meta_mu_);
    entries.assign(chunk_dir_.begin(), chunk_dir_.end());
  }
  int64_t copies = 0;
  for (const auto& [origin, meta] : entries) {
    const std::vector<int> desired =
        placement_->LiveReplicasFor(origin, meta.time, dead);
    std::vector<int> live;
    for (int h : meta.holders) {
      if (dead.count(h) == 0) live.push_back(h);
    }
    if (live.empty()) {
      return Status::Unavailable(
          "chunk lost: every holder died before recovery");
    }
    std::vector<int> holders;
    for (int target : desired) {
      bool have = false;
      for (int h : live) have = have || h == target;
      if (have) {
        holders.push_back(target);
        continue;
      }
      // Copy from the first live holder that answers (holder order is
      // deterministic, so so is the source choice).
      Result<Chunk> chunk = Status::Unavailable("no source answered");
      int src = -1;
      for (int s : live) {
        chunk = GetChunk(s, origin);
        if (chunk.ok()) {
          src = s;
          break;
        }
        if (!IsPeerFailure(chunk.status())) return chunk.status();
        RecordCallResult(s, false);
      }
      RETURN_NOT_OK(chunk.status());
      RETURN_NOT_OK(PutChunk(target, chunk.value(), meta.time));
      GridMetrics::Get().rereplicated_chunks->Inc();
      GridMetrics::Get().rereplicated_bytes->Inc(
          static_cast<int64_t>(chunk.value().ByteSize()));
      if (FlightRecorder::enabled()) {
        FlightRecorder::Instance().RecordAt(
            clock_(), FlightEventKind::kRereplicate, target,
            static_cast<uint64_t>(src), static_cast<uint64_t>(target));
      }
      holders.push_back(target);
      ++copies;
    }
    if (holders != meta.holders) {
      MutexLock lk(meta_mu_);
      chunk_dir_[origin].holders = holders;
    }
  }
  return copies;
}

Status DistributedArray::Load(const MemArray& source, int64_t time) {
  if (!(source.schema() == schema_)) {
    return Status::Invalid("schema mismatch loading distributed array");
  }
  return TracedOp("grid.load", [&](const TraceContext& ctx, OpTally* tally) {
    for (const auto& [origin, chunk] : source.chunks()) {
      if (chunk->present_count() == 0) continue;  // nothing to place
      // Source and destination share the schema, so the source chunk
      // origin IS the placement key — every cell of it lands together
      // (on every replica, when replication > 1).
      tally->rpcs += replication();
      RETURN_NOT_OK(PlaceChunk(origin, *chunk, time, ctx));
    }
    return Status::OK();
  });
}

Status DistributedArray::SetCell(const Coordinates& c,
                                 const std::vector<Value>& values,
                                 int64_t time) {
  // Placement is per chunk, so every cell of one chunk lands together.
  // A one-cell chunk travels (to every live replica at k > 1).
  MemArray one(schema_);
  RETURN_NOT_OK(one.SetCell(c, values));
  const auto& [origin, chunk] = *one.chunks().begin();
  return PlaceChunk(origin, *chunk, time);
}

std::vector<NodeStats> DistributedArray::node_stats() const {
  std::vector<NodeStats> out(static_cast<size_t>(num_nodes()));
  const std::set<int> dead = DeadSnapshot();
  for (int node = 0; node < num_nodes(); ++node) {
    bool fetched = false;
    // A declared-dead node goes straight to the local fallback instead
    // of burning a full RPC deadline per stats call.
    Result<std::vector<uint8_t>> r =
        dead.count(node) != 0
            ? Result<std::vector<uint8_t>>(
                  Status::Unavailable("node declared dead"))
            : client_->Call(node, net::MessageType::kNodeStatsReq, {},
                            net_opts_.call);
    if (r.ok()) {
      Result<net::NodeStatsResponse> resp =
          net::NodeStatsResponse::Decode(r.value());
      if (resp.ok()) {
        out[static_cast<size_t>(node)].cells_stored =
            resp.value().cells_stored;
        out[static_cast<size_t>(node)].bytes_stored =
            resp.value().bytes_stored;
        out[static_cast<size_t>(node)].cells_scanned =
            resp.value().cells_scanned;
        out[static_cast<size_t>(node)].bytes_scanned =
            resp.value().bytes_scanned;
        fetched = true;
      }
    }
    if (!fetched) {
      // Unreachable node (partition, shutdown): fall back to the
      // coordinator's last local accounting. Byte residency is derived
      // from the shard at snapshot time rather than maintained
      // incrementally: SetCell can grow a chunk's blocks by more than
      // the logical cell width, so incremental accounting drifts.
      MutexLock lk(stats_mu_);
      out[static_cast<size_t>(node)] = stats_[static_cast<size_t>(node)];
      out[static_cast<size_t>(node)].bytes_stored = static_cast<int64_t>(
          shards_[static_cast<size_t>(node)].ByteSize());
    }
  }
  return out;
}

void DistributedArray::SyncStoredStats(int node) {
  int64_t cells = shards_[static_cast<size_t>(node)].CellCount();
  MutexLock lk(stats_mu_);
  stats_[static_cast<size_t>(node)].cells_stored = cells;
}

void DistributedArray::RecordShardScan(int node) {
  const MemArray& shard = shards_[static_cast<size_t>(node)];
  int64_t cells = shard.CellCount();
  int64_t bytes = static_cast<int64_t>(shard.ByteSize());
  if (FlightRecorder::enabled()) {
    FlightRecorder::Instance().RecordAt(clock_(), FlightEventKind::kShardScan,
                                        node, static_cast<uint64_t>(cells),
                                        static_cast<uint64_t>(bytes));
  }
  {
    MutexLock lk(stats_mu_);
    stats_[static_cast<size_t>(node)].cells_scanned += cells;
    stats_[static_cast<size_t>(node)].bytes_scanned += bytes;
  }
  const GridMetrics& gm = GridMetrics::Get();
  gm.cells_scanned->Inc(cells);
  gm.bytes_scanned->Inc(bytes);
}

int64_t DistributedArray::TotalCells() const {
  int64_t n = 0;
  for (const auto& s : shards_) n += s.CellCount();
  return n;
}

double DistributedArray::LoadImbalance() const {
  int64_t total = TotalCells();
  // An empty array has no load and therefore no imbalance; returning
  // the 0/0 ratio as NaN (or pretending perfect balance) would poison
  // downstream comparisons.
  if (total == 0) return 0.0;
  int64_t max_cells = 0;
  for (const auto& s : shards_) max_cells = std::max(max_cells, s.CellCount());
  double mean = static_cast<double>(total) / num_nodes();
  return static_cast<double>(max_cells) / mean;
}

double DistributedArray::LoadImbalanceBytes() const {
  size_t total = 0;
  size_t max_bytes = 0;
  for (const auto& s : shards_) {
    size_t b = s.ByteSize();
    total += b;
    max_bytes = std::max(max_bytes, b);
  }
  if (total == 0) return 0.0;  // empty: no load, no imbalance
  double mean = static_cast<double>(total) / num_nodes();
  return static_cast<double>(max_bytes) / mean;
}

Result<int64_t> DistributedArray::Repartition(
    std::shared_ptr<const Partitioner> to, int64_t time) {
  if (to == nullptr) return Status::Invalid("null partitioner");
  // A repartition replaces every shard wholesale, so it is executed as
  // a coordinator-local rebuild (the byte movement is still accounted);
  // the per-chunk write path would route every chunk through the OLD
  // node set's transport while the new one is being built. The chunk
  // directory is rebuilt alongside the shards.
  ReplicaPlacement next_place(to, net_opts_.replication);
  int64_t bytes_moved = 0;
  std::map<Coordinates, std::vector<int>> placed;
  ASSIGN_OR_RETURN(std::vector<MemArray> next,
                   Reshard(shards_, schema_, next_place, time, &bytes_moved,
                           &placed));
  std::map<Coordinates, ChunkMeta> next_dir;
  if (next_place.replication() > 1) {
    for (auto& [origin, holders] : placed) {
      next_dir[origin] = ChunkMeta{time, std::move(holders)};
    }
  }
  // The node count may change: tear the network down before the swap
  // (its services hold this-pointers into the old topology) and rebuild
  // it after.
  ShutdownNet();
  shards_ = std::move(next);
  partitioner_ = std::move(to);
  placement_ =
      std::make_unique<ReplicaPlacement>(partitioner_, net_opts_.replication);
  pool_.reset();
  {
    MutexLock lk(stats_mu_);
    stats_.assign(static_cast<size_t>(num_nodes()), NodeStats{});
    for (int i = 0; i < num_nodes(); ++i) {
      stats_[static_cast<size_t>(i)].cells_stored =
          shards_[static_cast<size_t>(i)].CellCount();
    }
  }
  {
    // A repartition is a fresh start for the failure detector: the old
    // dead set indexed the old topology.
    MutexLock lk(meta_mu_);
    chunk_dir_ = std::move(next_dir);
    dead_.clear();
    consec_fail_.assign(static_cast<size_t>(num_nodes()), 0);
    recover_pending_ = false;
  }
  InitNet();
  return bytes_moved;
}

Result<MemArray> DistributedArray::FanOut(const char* label,
                                          const ExprPtr& pred,
                                          const PerSlot& per_slot) {
  GridMetrics::Get().parallel_ops->Inc();
  std::vector<Result<MemArray>> partials(
      static_cast<size_t>(num_nodes()),
      Result<MemArray>(Status::Internal("not run")));
  RETURN_NOT_OK(
      TracedOp(label, [&](const TraceContext& ctx, OpTally* tally) {
        tally->rpcs = num_nodes();
        return FanoutPool()->ParallelFor(
            num_nodes(), [&](int64_t node) -> Status {
              const int slot = static_cast<int>(node);
              Result<MemArray>& part = partials[static_cast<size_t>(node)];
              part = FetchSlot(slot, pred, ctx, &tally->failovers);
              if (part.ok() && per_slot) {
                part = per_slot(slot, std::move(part).value());
              }
              return part.status();
            });
      }));
  MaybeRecover();

  MemArray out(partials[0].value().schema());
  for (const Result<MemArray>& partial : partials) {
    RETURN_NOT_OK(partial.status());
    RETURN_NOT_OK(UnionInto(partial.value(), &out));
  }
  return out;
}

Result<MemArray> DistributedArray::ParallelAggregate(
    const ExecContext& ctx, const std::vector<std::string>& dims,
    const std::string& agg, const std::string& attr) {
  ASSIGN_OR_RETURN(MemArray all,
                   FanOut("grid.parallel_aggregate", nullptr, nullptr));
  // exec's Aggregate over the union is the single-node computation on the
  // same chunks, so the result is bit-identical to it. Its morsels run on
  // the (now idle) fan-out pool; grid work is not charged to the
  // caller's stats or slice gate.
  ExecContext local = ctx;
  local.pool = FanoutPool();
  local.stats = nullptr;
  local.gate = nullptr;
  return Aggregate(local, all, dims, agg, attr);
}

Result<MemArray> DistributedArray::ParallelSubsample(const ExecContext& ctx,
                                                     const ExprPtr& pred) {
  // Ship the execution environment so every node can evaluate the
  // predicate (in a real grid the registry is replicated at deploy).
  for (auto& svc : services_) {
    svc->SetExecEnv(ctx.functions, ctx.enable_chunk_pruning);
  }
  ASSIGN_OR_RETURN(MemArray out,
                   FanOut("grid.parallel_subsample", pred, nullptr));
  out.mutable_schema()->set_name(schema_.name() + "_subsample");
  return out;
}

Result<MemArray> DistributedArray::ParallelSjoin(
    const ExecContext& ctx, const DistributedArray& other,
    const std::vector<std::pair<std::string, std::string>>& dim_pairs,
    int64_t* bytes_moved) {
  if (bytes_moved != nullptr) *bytes_moved = 0;

  // Co-partitioned case: identical schemes over the same coordinate
  // system join node-locally with zero movement.
  const std::vector<MemArray>* rhs_shards = &other.shards_;
  std::vector<MemArray> resharded;
  if (!partitioner_->Equals(*other.partitioner_)) {
    // Move the (usually smaller) other array to this scheme, counting
    // bytes. A production system would pick the cheaper direction; the
    // benchmark wants the movement made visible, not hidden. The rebuild
    // is a plain shard vector, not a full DistributedArray — the staged
    // copy needs no network of its own.
    int64_t moved = 0;
    ASSIGN_OR_RETURN(resharded,
                     Reshard(other.shards_, other.schema_,
                             ReplicaPlacement(partitioner_, 1), 0, &moved,
                             nullptr));
    if (bytes_moved != nullptr) *bytes_moved = moved;
    rhs_shards = &resharded;
  }

  // Node-local joins: each worker fetches its node's lhs shard over the
  // wire and joins it against the co-located rhs shard.
  return FanOut("grid.parallel_sjoin", nullptr,
                [&](int slot, MemArray lhs) -> Result<MemArray> {
                  ExecContext local = ctx;
                  local.stats = nullptr;
                  return Sjoin(local, lhs,
                               (*rhs_shards)[static_cast<size_t>(slot)],
                               dim_pairs);
                });
}

Result<int64_t> DistributedArray::ReplicateBoundaries(
    int64_t max_position_error) {
  if (placement_->replication() > 1) {
    // Boundary replicas are deliberately placed on the "wrong" node,
    // which contradicts the chunk directory's holder bookkeeping; the
    // two replication mechanisms do not compose (DESIGN.md §13).
    return Status::Invalid(
        "boundary replication requires replication = 1");
  }
  const auto* range = dynamic_cast<const RangePartitioner*>(
      partitioner_.get());
  if (range == nullptr) {
    return Status::Invalid(
        "boundary replication requires a range partitioner");
  }
  if (max_position_error < 0) {
    return Status::Invalid("max position error must be >= 0");
  }
  size_t dim = range->dim();
  int64_t replicated = 0;
  std::vector<std::pair<int, std::pair<Coordinates, std::vector<Value>>>>
      to_copy;
  for (int node = 0; node < num_nodes(); ++node) {
    const MemArray& shard = shards_[static_cast<size_t>(node)];
    std::vector<Value> cell;
    shard.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                          int64_t rank) {
      for (int64_t b : range->boundaries()) {
        // Cells within the error bound of boundary b may actually belong
        // to the other side; replicate there (paper: "redundantly place
        // an observation in multiple partitions").
        if (c[dim] >= b - max_position_error &&
            c[dim] <= b + max_position_error - 1) {
          Coordinates probe = c;
          int self = node;
          // Destination: the partition on the other side of b.
          int dest = c[dim] < b ? self + 1 : self - 1;
          // Compute destination robustly from the boundary itself.
          probe[dim] = c[dim] < b ? b : b - 1;
          dest = partitioner_->NodeFor(probe, 0);
          if (dest == self) continue;
          cell.clear();
          for (size_t a = 0; a < chunk.nattrs(); ++a) {
            cell.push_back(chunk.block(a).Get(rank));
          }
          to_copy.push_back({dest, {c, cell}});
        }
      }
      return true;
    });
  }
  // Replica placement is a write like any other: through the wire.
  for (auto& [dest, kv] : to_copy) {
    RETURN_NOT_OK(PutCell(dest, kv.first, kv.second, 0));
    ++replicated;
  }
  return replicated;
}

}  // namespace scidb

#include "grid/node_service.h"

#include <set>
#include <string>
#include <utility>

#include "common/byte_io.h"
#include "common/flight_recorder.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "exec/expr_serde.h"
#include "exec/operators.h"
#include "grid/cluster.h"
#include "net/message.h"
#include "storage/chunk_serde.h"

namespace scidb {

void GridNodeService::Install(net::RpcServer* server) {
  server->Handle(net::MessageType::kChunkPut,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ChunkPut(payload);
                 });
  server->Handle(net::MessageType::kChunkGet,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ChunkGet(payload);
                 });
  server->Handle(net::MessageType::kScanShard,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return ScanShard(payload);
                 });
  server->Handle(net::MessageType::kMarkDead,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return MarkDead(payload);
                 });
  server->Handle(net::MessageType::kNodeStatsReq,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return NodeStatsReq(payload);
                 });
  server->Handle(net::MessageType::kMetricsGet,
                 [this](int, const std::vector<uint8_t>& payload) {
                   return MetricsGet(payload);
                 });
  server->Handle(net::MessageType::kTraceGet,
                 [this, server](int, const std::vector<uint8_t>& payload) {
                   return TraceGet(server, payload);
                 });
}

void GridNodeService::SetExecEnv(const FunctionRegistry* functions,
                                 bool enable_chunk_pruning) {
  MutexLock lock(mu_);
  functions_ = functions;
  enable_chunk_pruning_ = enable_chunk_pruning;
}

Result<std::vector<uint8_t>> GridNodeService::ChunkPut(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ChunkPutRequest req,
                   net::ChunkPutRequest::Decode(payload));
  // The load epoch decided placement on the sending side; the serving
  // node just stores what it was handed.
  (void)req.time;
  ASSIGN_OR_RETURN(Chunk chunk, DeserializeChunk(req.chunk_bytes,
                                                 owner_->schema_.attrs()));
  MutexLock lock(mu_);
  MemArray& shard = owner_->shards_[static_cast<size_t>(node_)];
  // The decoded chunk is ours: a free grid slot takes it as is.
  RETURN_NOT_OK(
      shard.UpsertChunk(std::make_shared<Chunk>(std::move(chunk))));
  // Derived, not incremented: replaying this request (an RPC retry or a
  // fault-injected duplicate) leaves the count unchanged.
  owner_->SyncStoredStats(node_);
  return std::vector<uint8_t>{};  // empty ack
}

Result<std::vector<uint8_t>> GridNodeService::ChunkGet(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ChunkGetRequest req,
                   net::ChunkGetRequest::Decode(payload));
  MutexLock lock(mu_);
  const MemArray& shard = owner_->shards_[static_cast<size_t>(node_)];
  const Chunk* chunk = shard.FindChunk(req.origin);
  if (chunk == nullptr) {
    return Status::NotFound("no chunk at requested origin on node " +
                            std::to_string(node_));
  }
  return SerializeChunk(*chunk);
}

Result<std::vector<uint8_t>> GridNodeService::MarkDead(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::MarkDeadRequest req,
                   net::MarkDeadRequest::Decode(payload));
  MutexLock lock(mu_);
  known_dead_.assign(req.dead.begin(), req.dead.end());
  return std::vector<uint8_t>{};  // empty ack
}

Result<std::vector<uint8_t>> GridNodeService::ScanShard(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::ScanShardRequest req,
                   net::ScanShardRequest::Decode(payload));
  if (req.view_of >= owner_->num_nodes()) {
    return Status::Invalid("ScanShard view_of names no grid node");
  }
  MutexLock lock(mu_);
  // The serving node pays the scan, so it is accounted here — a
  // duplicated request really is scanned twice.
  owner_->RecordShardScan(node_);
  const MemArray& shard = owner_->shards_[static_cast<size_t>(node_)];

  // Replication view (DESIGN.md §13): the scan serves exactly the chunks
  // of fan-out slot `target` (a slot is a primary partition, fixed for
  // the chunk's lifetime) that this node currently owns — owns meaning
  // "is the first live replica of", under the union of this node's
  // MarkDead view and the request's suspect set. With replication = 1
  // and no replication view in the request, the legacy whole-shard scan
  // runs untouched.
  const ReplicaPlacement& place = owner_->placement();
  std::set<int> dead(known_dead_.begin(), known_dead_.end());
  for (int32_t d : req.suspect_dead) dead.insert(d);
  const int target = req.view_of >= 0 ? req.view_of : node_;
  const bool filtered =
      place.replication() > 1 || req.view_of >= 0 || !dead.empty();

  MemArray view(owner_->schema_);
  const MemArray* source = &shard;
  if (filtered) {
    for (const auto& [origin, chunk] : shard.chunks()) {
      const int64_t t = owner_->DirTimeFor(origin);
      if (place.PrimaryFor(origin, t) != target) continue;
      if (place.OwnerFor(origin, t, dead) != node_) continue;
      (*view.mutable_chunks())[origin] = chunk;
    }
    source = &view;
  }

  net::ScanShardResponse resp;
  if (req.pred_bytes.empty()) {
    // Data shipping: the served chunks verbatim, in origin order.
    for (const auto& [origin, chunk] : source->chunks()) {
      resp.chunks.push_back(SerializeChunk(*chunk));
    }
  } else {
    // Function shipping: the predicate arrives as opaque expr_serde
    // bytes (net/ cannot name the Expr type); decode it here, at the
    // grid boundary, rejecting trailing garbage after the tree.
    ByteReader pr(req.pred_bytes);
    ASSIGN_OR_RETURN(ExprPtr pred, DecodeExpr(&pr));
    if (pr.remaining() != 0) {
      return Status::Corruption("trailing bytes after ScanShard predicate");
    }
    // Evaluate the shipped predicate server-side and return only the
    // matching cells.
    ExecContext local;
    local.functions = functions_;
    local.enable_chunk_pruning = enable_chunk_pruning_;
    // `local.pool` is null, so Subsample's ParallelChunkMap takes the
    // serial path — no ParallelFor wait happens under mu_ despite what
    // the call graph's context-insensitive closure concludes.
    ASSIGN_OR_RETURN(MemArray filtered_arr, Subsample(local, *source, pred));  // NOLINT(blocking-under-lock)
    for (const auto& [origin, chunk] : filtered_arr.chunks()) {
      resp.chunks.push_back(SerializeChunk(*chunk));
    }
  }
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> GridNodeService::NodeStatsReq(
    const std::vector<uint8_t>& payload) {
  if (!payload.empty()) {
    return Status::Invalid("NodeStatsReq carries no payload");
  }
  MutexLock lock(mu_);
  net::NodeStatsResponse resp;
  const MemArray& shard = owner_->shards_[static_cast<size_t>(node_)];
  {
    MutexLock stats_lock(owner_->stats_mu_);
    const NodeStats& s = owner_->stats_[static_cast<size_t>(node_)];
    resp.cells_stored = s.cells_stored;
    resp.cells_scanned = s.cells_scanned;
    resp.bytes_scanned = s.bytes_scanned;
  }
  // Byte residency is derived from the shard at snapshot time; see
  // DistributedArray::node_stats().
  resp.bytes_stored = static_cast<int64_t>(shard.ByteSize());
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> GridNodeService::MetricsGet(
    const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::MetricsGetRequest req,
                   net::MetricsGetRequest::Decode(payload));
  MetricsSnapshot snap;
  auto gauge = [&snap](const char* name, int64_t v) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = v;
    snap.entries.push_back(std::move(e));
  };
  {
    MutexLock lock(mu_);
    {
      MutexLock stats_lock(owner_->stats_mu_);
      const NodeStats& s = owner_->stats_[static_cast<size_t>(node_)];
      gauge("scidb.node.cells_stored", s.cells_stored);
      gauge("scidb.node.cells_scanned", s.cells_scanned);
      gauge("scidb.node.bytes_scanned", s.bytes_scanned);
    }
    // Derived from the shard at scrape time, like NodeStatsReq.
    const MemArray& shard = owner_->shards_[static_cast<size_t>(node_)];
    gauge("scidb.node.bytes_stored", static_cast<int64_t>(shard.ByteSize()));
  }
  if (req.include_process != 0) {
    // Every simulated node shares one process, so the process-wide
    // registry repeats per node — exactly what scraping each process of
    // a real grid would return.
    MetricsSnapshot process = Metrics::Instance().Snapshot();
    for (auto& e : process.entries) snap.entries.push_back(std::move(e));
  }
  const std::string json = SnapshotToJson(snap);
  net::MetricsGetResponse resp;
  resp.json.assign(json.begin(), json.end());
  return resp.EncodePayload();
}

Result<std::vector<uint8_t>> GridNodeService::TraceGet(
    net::RpcServer* server, const std::vector<uint8_t>& payload) {
  ASSIGN_OR_RETURN(net::TraceGetRequest req,
                   net::TraceGetRequest::Decode(payload));
  net::TraceGetResponse resp;
  if (req.trace_id != 0) resp.spans = server->TakeSpans(req.trace_id);
  if (req.include_flight != 0) {
    resp.events = FlightRecorder::Instance().Dump();
  }
  return resp.EncodePayload();
}

}  // namespace scidb

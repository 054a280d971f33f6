#ifndef SCIDB_SERVER_QUERY_SERVER_H_
#define SCIDB_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "array/schema.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/trace.h"
#include "net/message.h"
#include "net/rpc.h"
#include "query/session.h"
#include "server/fair_scheduler.h"
#include "server/shared_catalog.h"

namespace scidb {
namespace server {

// The concurrent multi-session query server (DESIGN.md §15): multiplexes
// many clients over one transport node, each with a private Session for
// catalog/knob isolation, all sharing one morsel pool (fair-scheduled)
// and one SharedCatalog of updatable arrays (snapshot reads).
//
// Protocol (net/message.h): the client submits kQuery under a
// client-generated query id, polls kQueryDone, pulls buffered result
// chunks one at a time with kResultChunk, and finally sends kCancel —
// which doubles as abort (running query) and release (finished query).
// Every request is idempotent, so the RPC layer's retries and the
// transport's duplicated/delayed frames are harmless:
//   - a duplicate kQuery for a live or already-released id is a no-op;
//   - kQueryDone/kResultChunk are pure reads of buffered state;
//   - a duplicate kCancel of a released id is a no-op.
// Released ids are remembered per client as a high-watermark, so even a
// maximally delayed duplicate kQuery cannot resurrect a finished query
// (client ids must be monotonically increasing, which QueryClient
// guarantees).
//
// Admission control: at most max_concurrent_queries queries run at
// once, and at most max_queued_result_bytes of finished-but-unfetched
// results are buffered. Beyond either bound a kQuery is REJECTED with
// Status::Busy — never queued — so clients see typed backpressure they
// can retry against instead of an unbounded server-side queue.
//
// Execution: each admitted query runs on its own driver thread (this
// file is on the no-raw-thread allowlist; the drivers participate in
// the shared pool as morsel workers, they do not compute outside it
// beyond parse/serialize). The session's effective parallelism is
// min(set parallelism, per_query_parallelism, pool width) — the server
// cap wins, see README "Parallelism precedence".
//
// Snapshot reads: at execution start the query pins the SharedCatalog's
// global epoch; array references not found in the session's private
// catalog resolve to the shared array's state as of that epoch. Writers
// never block these reads (no-overwrite storage), and the pinned epoch
// is reported back in QueryDoneResponse::snapshot_epoch.
class QueryServer {
 public:
  struct Options {
    // Admission bounds. Queries beyond max_concurrent_queries, or
    // arriving while finished-result buffers exceed
    // max_queued_result_bytes, are rejected with Status::Busy.
    int max_concurrent_queries = 4;
    size_t max_queued_result_bytes = 64u << 20;
    // Server-side cap on any one query's pool workers.
    int per_query_parallelism = 2;
    // Shared pool + slicing (FairScheduler::Options).
    int pool_width = 4;
    int64_t slice_morsels = 4;
    // Clock for the query latency histogram; null = SteadyNowNs.
    TraceClock clock;
  };

  QueryServer(net::Transport* transport, int node, Options opts);
  ~QueryServer();

  // Registers the four query handlers and binds the node on the
  // transport. Call once before any client connects.
  Status Start();

  // Cancels every in-flight query, joins all drivers, and rejects new
  // work with Unavailable. Idempotent; also run by the destructor.
  void Shutdown();

  // The shared catalog of updatable arrays; define arrays here to make
  // them visible (and insertable) to every client. Thread-safe.
  SharedCatalog* catalog() { return &catalog_; }

  FairScheduler* scheduler() { return &scheduler_; }

 private:
  // One submitted query. Lifetime: created at admission, erased at
  // release (kCancel) or shutdown; shared_ptr so handlers can read the
  // buffered result without holding the registry lock.
  struct QueryState {
    QueryState(int client, uint64_t qid) : client(client), qid(qid) {}

    const int client;
    const uint64_t qid;
    std::atomic<bool> cancel{false};

    Mutex mu;
    CondVar done_cv;
    // Driver-thread handoff: the submit handler spawns the thread, then
    // stores the handle and flips driver_set under mu. The reaper waits
    // for done && driver_set, moves the handle out under mu, and joins
    // with no lock held (join is a blocking root).
    std::thread driver GUARDED_BY(mu);
    bool driver_set GUARDED_BY(mu) = false;
    bool done GUARDED_BY(mu) = false;
    // Result payload, written once by the driver before done flips.
    Status status GUARDED_BY(mu);
    uint8_t kind GUARDED_BY(mu) = 0;
    uint8_t boolean GUARDED_BY(mu) = 0;
    std::string message GUARDED_BY(mu);
    std::vector<std::vector<uint8_t>> chunks GUARDED_BY(mu);
    bool has_schema GUARDED_BY(mu) = false;
    ArraySchema schema GUARDED_BY(mu);
    int64_t snapshot_epoch GUARDED_BY(mu) = 0;
    size_t result_bytes GUARDED_BY(mu) = 0;
  };

  // One client's session. Statements from the same client run one at a
  // time (busy flag + condvar, NOT a mutex held across Execute — the
  // engine blocks on the pool inside); different clients interleave.
  struct ClientState {
    explicit ClientState(std::unique_ptr<Session> s)
        : session(std::move(s)) {}

    // Owned by whichever driver holds the busy flag below.
    std::unique_ptr<Session> session;  // NOLINT(lock-coverage): busy-gated
    Mutex mu;
    CondVar cv;
    bool busy GUARDED_BY(mu) = false;
  };

  using QueryKey = std::pair<int, uint64_t>;  // (client node, client qid)

  Result<std::vector<uint8_t>> HandleQuery(int src,
                                           const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> HandleDone(int src,
                                          const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> HandleChunk(int src,
                                           const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);
  Result<std::vector<uint8_t>> HandleCancel(int src,
                                            const std::vector<uint8_t>& payload)
      LOCKS_EXCLUDED(mu_);

  // Driver-thread body: runs `statement` on the client's session with
  // the snapshot resolver + cancel/gate controls installed, then
  // publishes the buffered result and flips done.
  void RunQuery(std::shared_ptr<ClientState> cs, std::shared_ptr<QueryState> qs,
                std::string statement) LOCKS_EXCLUDED(mu_);

  // Executes one statement on the session (serialized per client).
  // `epoch` carries the pinned read epoch in; a shared-catalog commit
  // overwrites it with the commit epoch.
  Result<QueryResult> ExecuteOnSession(ClientState* cs, QueryState* qs,
                                       int64_t* epoch,
                                       const std::string& statement);

  // Removes the query from the registry, updates admission accounting
  // and the released-id watermark. Returns the state if this caller won
  // the removal race (and must join the driver), null otherwise.
  std::shared_ptr<QueryState> Reap(const QueryKey& key) LOCKS_EXCLUDED(mu_);

  net::Transport* const transport_;
  const int node_;
  const Options opts_;
  const TraceClock clock_;

  SharedCatalog catalog_;    // NOLINT(lock-coverage): internally synchronized
  FairScheduler scheduler_;  // NOLINT(lock-coverage): internally synchronized
  net::RpcServer rpc_;       // NOLINT(lock-coverage): internally synchronized

  Counter* const queries_;            // scidb.server.queries
  Counter* const admission_rejects_;  // scidb.server.admission_rejects
  Counter* const cancels_;            // scidb.server.cancels
  Gauge* const active_queries_;       // scidb.server.active_queries
  Gauge* const queued_bytes_gauge_;   // scidb.server.queued_result_bytes
  Histogram* const latency_us_;       // scidb.server.query_latency_us

  Mutex mu_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  int active_ GUARDED_BY(mu_) = 0;
  size_t queued_bytes_ GUARDED_BY(mu_) = 0;
  std::map<QueryKey, std::shared_ptr<QueryState>> queries_live_
      GUARDED_BY(mu_);
  std::map<int, std::shared_ptr<ClientState>> sessions_ GUARDED_BY(mu_);
  // Highest released qid per client: the idempotency watermark that
  // keeps delayed duplicate kQuery frames from resubmitting.
  std::map<int, uint64_t> released_ GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace scidb

#endif  // SCIDB_SERVER_QUERY_SERVER_H_

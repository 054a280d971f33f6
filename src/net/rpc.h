#ifndef SCIDB_NET_RPC_H_
#define SCIDB_NET_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/transport.h"

namespace scidb {
namespace net {

// Request/response on top of Transport (DESIGN.md §10): request-id
// correlation, per-call deadlines on the injectable clock from
// common/trace.h, and bounded exponential backoff with jitter for
// retries. Retries are safe because every RPC in the grid vocabulary is
// idempotent (ChunkPut is a per-cell last-writer-wins upsert; the reads
// are pure); the server may therefore execute a duplicated or retried
// request twice and the outcome is unchanged.

// "This thread is willing to block for up to `ns`." The default (null)
// implementation really waits (condition variable, so an arriving
// response cuts the wait short); tests inject VirtualTime::sleep(),
// which advances a manual clock instantly — deadline and backoff tests
// never sleep for real.
using SleepFn = std::function<void(uint64_t ns)>;

// Deterministic clock/sleep pair for deadline tests: sleep advances
// virtual time by exactly the requested amount, so a full-partition
// call "consumes" its entire deadline in microseconds of real time.
class VirtualTime {
 public:
  explicit VirtualTime(uint64_t start_ns = 1) : now_ns_(start_ns) {}

  uint64_t Now() const { return now_ns_.load(); }
  void Advance(uint64_t ns) { now_ns_.fetch_add(ns); }

  TraceClock clock() {
    return [this] { return now_ns_.load(); };
  }
  SleepFn sleep() {
    return [this](uint64_t ns) { now_ns_.fetch_add(ns); };
  }

 private:
  std::atomic<uint64_t> now_ns_;
};

struct CallOptions {
  // Total budget for the call including every retry and backoff.
  uint64_t deadline_ns = 500'000'000;
  // Budget for one attempt's response wait; on expiry the attempt is
  // abandoned and (budget permitting) retried.
  uint64_t attempt_timeout_ns = 100'000'000;
  int max_attempts = 4;
  // Exponential backoff between attempts: uniformly jittered in
  // [base/2, base], doubling up to the cap.
  uint64_t backoff_base_ns = 1'000'000;
  uint64_t backoff_cap_ns = 50'000'000;
  // When active, the call is distributed-traced (DESIGN.md §12): the
  // context rides on every request frame (span_id rewritten to this
  // call's span, parent = trace.span_id), the server records a handler
  // span, and the client records one rpc.* span covering all attempts
  // into Options::spans.
  TraceContext trace;
};

// Dispatches request frames to per-MessageType handlers and replies
// with kAck (payload = handler result) or kError (payload = wire-coded
// Status), echoing the request id. Thread-safe; handlers run on the
// transport's delivery thread.
class RpcServer {
 public:
  // `payload` is the request payload; the returned bytes become the Ack
  // payload. A non-OK result is shipped back verbatim as kError.
  using Handler = std::function<Result<std::vector<uint8_t>>(
      int src, const std::vector<uint8_t>& payload)>;

  struct Options {
    // Null = SteadyNowNs. Handler spans and flight-recorder events read
    // this clock, so virtual-time tests get deterministic timings.
    TraceClock clock;
    // Bound on buffered server-side handler spans (oldest dropped).
    size_t max_spans = 4096;
  };

  RpcServer(Transport* transport, int node);
  RpcServer(Transport* transport, int node, Options opts);

  void Handle(MessageType type, Handler handler) LOCKS_EXCLUDED(mu_);

  // Frame entry point; wired up by BindNode. A traced request frame
  // (frame.trace.active()) gets its handler timed into a server.* span,
  // and the reply echoes the request's trace context.
  void OnFrame(int src, Frame frame) LOCKS_EXCLUDED(mu_);

  // Removes and returns the handler spans of one trace, in execution
  // order. Served over the wire by the grid's TraceGet handler, so the
  // coordinator's stitch crosses the RPC boundary like any other read.
  std::vector<TraceNode> TakeSpans(uint64_t trace_id) {
    return spans_.Take(trace_id);
  }

 private:
  Transport* const transport_;
  const int node_;
  const TraceClock clock_;
  Mutex mu_;
  std::map<uint8_t, Handler> handlers_ GUARDED_BY(mu_);
  SpanStore spans_;  // NOLINT(lock-coverage): internally synchronized
};

// Issues correlated calls from one node. Thread-safe: concurrent Calls
// from different threads multiplex over the same transport.
class RpcClient {
 public:
  struct Options {
    // Null = SteadyNowNs. Deadlines, backoff, and the latency
    // histogram all read this clock.
    TraceClock clock;
    // Null = real condition-variable waits.
    SleepFn sleep;
    uint64_t jitter_seed = 1;
    // Destination for client-side rpc.* spans of traced calls (one span
    // per Call, covering every attempt). Null = spans not recorded even
    // when the call carries a TraceContext. Must outlive the client.
    SpanStore* spans = nullptr;
  };

  // Two-arg form = default Options (an `= {}` default argument would
  // need Options' member initializers before the enclosing class is
  // complete, which the language does not allow).
  RpcClient(Transport* transport, int node);
  RpcClient(Transport* transport, int node, Options opts);

  // Sends `payload` as a `type` request to `dst` and waits for the
  // matching response. Retries on Unavailable and attempt timeouts with
  // jittered exponential backoff while the deadline allows; returns the
  // Ack payload, the server's error Status, DeadlineExceeded when the
  // budget ran out, or Unavailable when every attempt failed to reach
  // the peer. Never blocks past the deadline (plus one scheduling
  // quantum) — a full partition yields a clean error, not a hang.
  Result<std::vector<uint8_t>> Call(int dst, MessageType type,
                                    std::vector<uint8_t> payload,
                                    const CallOptions& opts = {})
      LOCKS_EXCLUDED(mu_);

  // Frame entry point; wired up by BindNode.
  void OnFrame(int src, Frame frame) LOCKS_EXCLUDED(mu_);

 private:
  struct Pending {
    bool done = false;
    bool is_error = false;
    std::vector<uint8_t> payload;
    Status error;
  };

  // True if the response arrived before `deadline_ns`.
  bool WaitForResponse(Pending* slot, uint64_t deadline_ns)
      LOCKS_EXCLUDED(mu_);
  void SleepNs(uint64_t ns) LOCKS_EXCLUDED(mu_);

  Transport* const transport_;
  const int node_;
  const TraceClock clock_;
  const SleepFn sleep_;
  SpanStore* const spans_;

  Mutex mu_;
  CondVar cv_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Pending*> pending_ GUARDED_BY(mu_);
  Rng jitter_ GUARDED_BY(mu_);
};

// Registers `node` on the transport with a demultiplexer: kAck/kError
// frames go to `client`, request frames to `server`. Either may be
// null (a pure coordinator has no server; a pure worker no client).
Status BindNode(Transport* transport, int node, RpcServer* server,
                RpcClient* client);

}  // namespace net
}  // namespace scidb

#endif  // SCIDB_NET_RPC_H_

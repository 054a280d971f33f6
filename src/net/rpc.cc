#include "net/rpc.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "net/message.h"

namespace scidb {
namespace net {

namespace {

struct RpcMetrics {
  Counter* retries;
  Counter* timeouts;
  Counter* stale;
  Counter* errors;
  Histogram* latency_us;
  // Retries-per-successful-call distribution: a call that succeeds after
  // N retries records N, so p99 here answers "how often does the grid
  // need more than one shot" — the aggregate `retries` counter cannot.
  Histogram* retries_per_call;

  static const RpcMetrics& Get() {
    static const RpcMetrics m = {
        Metrics::Instance().counter("scidb.net.retries"),
        Metrics::Instance().counter("scidb.net.timeouts"),
        Metrics::Instance().counter("scidb.net.stale_responses"),
        Metrics::Instance().counter("scidb.net.rpc_errors"),
        Metrics::Instance().histogram("scidb.net.rpc_latency_us"),
        Metrics::Instance().histogram("scidb.net.rpc_retries"),
    };
    return m;
  }
};

bool IsRetryable(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

}  // namespace

RpcServer::RpcServer(Transport* transport, int node)
    : RpcServer(transport, node, Options()) {}

RpcServer::RpcServer(Transport* transport, int node, Options opts)
    : transport_(transport),
      node_(node),
      clock_(opts.clock ? std::move(opts.clock) : TraceClock(SteadyNowNs)),
      spans_(opts.max_spans) {}

void RpcServer::Handle(MessageType type, Handler handler) {
  MutexLock lock(mu_);
  handlers_[static_cast<uint8_t>(type)] = std::move(handler);
}

void RpcServer::OnFrame(int src, Frame frame) {
  if (FlightRecorder::enabled()) {
    FlightRecorder::Instance().RecordAt(
        clock_(), FlightEventKind::kRpcRecv, node_, frame.request_id,
        static_cast<uint64_t>(frame.type));
  }
  Handler handler;
  {
    MutexLock lock(mu_);
    auto it = handlers_.find(static_cast<uint8_t>(frame.type));
    if (it != handlers_.end()) handler = it->second;
  }
  const bool traced = frame.trace.active();
  const uint64_t handler_start_ns = traced ? clock_() : 0;
  Frame reply;
  reply.request_id = frame.request_id;
  bool ok = false;
  if (!handler) {
    reply.type = MessageType::kError;
    reply.payload = EncodeErrorPayload(Status::NotImplemented(
        std::string("no handler for ") + MessageTypeName(frame.type)));
  } else {
    Result<std::vector<uint8_t>> r = handler(src, frame.payload);
    if (r.ok()) {
      ok = true;
      reply.type = MessageType::kAck;
      reply.payload = std::move(r).value();
    } else {
      reply.type = MessageType::kError;
      reply.payload = EncodeErrorPayload(r.status());
    }
  }
  if (traced) {
    // One handler span per delivered request frame; a duplicated or
    // retried request therefore yields multiple spans, which is the
    // truth worth surfacing (the duplicate really did execute).
    TraceNode span;
    span.trace_id = frame.trace.trace_id;
    span.span_id = NextSpanId();
    span.parent_span_id = frame.trace.span_id;
    span.node = node_;
    span.label = std::string("server.") + MessageTypeName(frame.type);
    span.start_ns = handler_start_ns;
    span.wall_ns = clock_() - handler_start_ns;
    span.AddNote("src", src);
    span.AddNote("ok", ok ? 1 : 0);
    spans_.Add(std::move(span));
    // Echo the request's context so the reply frame is traceable too.
    reply.trace = frame.trace;
  }
  (void)transport_->Send(  // status-ignored: a failed reply send is
      node_, src,          // indistinguishable from a lost reply to the
      std::move(reply));   // caller, whose retry/deadline machinery owns it
}

RpcClient::RpcClient(Transport* transport, int node)
    : RpcClient(transport, node, Options()) {}

RpcClient::RpcClient(Transport* transport, int node, Options opts)
    : transport_(transport),
      node_(node),
      clock_(opts.clock ? std::move(opts.clock) : TraceClock(SteadyNowNs)),
      sleep_(std::move(opts.sleep)),
      spans_(opts.spans),
      jitter_(opts.jitter_seed) {}

void RpcClient::OnFrame(int src, Frame frame) {
  (void)src;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(frame.request_id);
    if (it != pending_.end()) {
      Pending* slot = it->second;
      if (!slot->done) {
        if (frame.type == MessageType::kError) {
          Status transported = Status::OK();
          Status parse = DecodeErrorPayload(frame.payload, &transported);
          slot->is_error = true;
          slot->error = parse.ok() ? transported : parse;
        } else {
          slot->payload = std::move(frame.payload);
        }
        slot->done = true;
      }
      // A second response for a still-pending id (fault-injected dup)
      // is simply ignored; the slot already holds the answer.
    } else {
      // Response to an abandoned attempt (the call retried or gave up).
      RpcMetrics::Get().stale->Inc();
    }
  }
  cv_.notify_all();
}

bool RpcClient::WaitForResponse(Pending* slot, uint64_t deadline_ns) {
  if (sleep_) {
    // Virtual-time path: between checks the injected sleep advances the
    // manual clock (it must advance by the requested amount, or this
    // loop could spin forever).
    while (true) {
      {
        MutexLock lock(mu_);
        if (slot->done) return true;
      }
      uint64_t now = clock_();
      if (now >= deadline_ns) {
        MutexLock lock(mu_);
        return slot->done;
      }
      sleep_(deadline_ns - now);
    }
  }
  MutexLock lock(mu_);
  while (!slot->done) {
    uint64_t now = clock_();
    if (now >= deadline_ns) return slot->done;
    cv_.wait_for(mu_, std::chrono::nanoseconds(deadline_ns - now));
  }
  return true;
}

void RpcClient::SleepNs(uint64_t ns) {
  if (ns == 0) return;
  if (sleep_) {
    sleep_(ns);
    return;
  }
  // Real-time backoff. Waking early on an (unrelated) response signal
  // only shortens the backoff, which is harmless.
  MutexLock lock(mu_);
  cv_.wait_for(mu_, std::chrono::nanoseconds(ns));
}

Result<std::vector<uint8_t>> RpcClient::Call(int dst, MessageType type,
                                             std::vector<uint8_t> payload,
                                             const CallOptions& opts) {
  const RpcMetrics& metrics = RpcMetrics::Get();
  const uint64_t start_ns = clock_();
  const uint64_t deadline_ns = start_ns + opts.deadline_ns;
  const int max_attempts = std::max(1, opts.max_attempts);
  uint64_t backoff_ns = std::max<uint64_t>(1, opts.backoff_base_ns);
  Status last = Status::Unavailable("rpc made no attempts");

  // Distributed tracing (DESIGN.md §12): one client span per Call, named
  // rpc.<Type>, covering every attempt. Each request frame carries the
  // caller's trace with span_id rewritten to this call's span, so the
  // server-side handler spans parent onto it.
  const bool trace_wire = opts.trace.active();
  const uint64_t call_span_id = trace_wire ? NextSpanId() : 0;
  int sends = 0;                  // attempts actually put on the wire
  uint64_t backoff_spent_ns = 0;  // total time slept between attempts
  uint64_t wire_wait_ns = 0;      // total time waiting on responses
  auto record_span = [&](bool call_ok) {
    if (!trace_wire || spans_ == nullptr) return;
    TraceNode span;
    span.trace_id = opts.trace.trace_id;
    span.span_id = call_span_id;
    span.parent_span_id = opts.trace.span_id;
    span.node = node_;
    span.label = std::string("rpc.") + MessageTypeName(type);
    span.start_ns = start_ns;
    span.wall_ns = clock_() - start_ns;
    span.AddNote("dst", dst);
    span.AddNote("attempts", sends);
    span.AddNote("retries", sends > 0 ? sends - 1 : 0);
    span.AddNote("backoff_us", static_cast<double>(backoff_spent_ns / 1000));
    span.AddNote("wire_us", static_cast<double>(wire_wait_ns / 1000));
    if (!call_ok) span.AddNote("err", 1);
    spans_->Add(std::move(span));
  };

  // One shared response slot for the whole call. Every attempt registers
  // a fresh request id, but all of them resolve to this slot and stay
  // registered until the call ends: a late response to an *earlier*
  // attempt of a still-running call (a partition healing mid-call can
  // release one right as the retry goes out) completes the call instead
  // of being discarded as stale — discarding it both wasted the answer
  // and double-counted the call in scidb.net.rpc_retries. Stale
  // accounting now means what it says: a response nobody is waiting for.
  Pending slot;
  std::vector<uint64_t> call_ids;
  auto forget_ids = [&]() {
    MutexLock lock(mu_);
    for (uint64_t id : call_ids) pending_.erase(id);
    call_ids.clear();
  };

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      uint64_t jitter_ns;
      {
        MutexLock lock(mu_);
        jitter_ns = backoff_ns / 2 + jitter_.Uniform(backoff_ns / 2 + 1);
      }
      uint64_t backoff_now = clock_();
      if (backoff_now >= deadline_ns) break;
      const uint64_t sleep_ns = std::min(jitter_ns, deadline_ns - backoff_now);
      SleepNs(sleep_ns);
      backoff_spent_ns += sleep_ns;
      backoff_ns = std::min(backoff_ns * 2, opts.backoff_cap_ns);
    }
    // An earlier attempt's response may have arrived during the backoff;
    // skip straight to consuming it rather than resending (and rather
    // than counting a retry that never went on the wire).
    bool have_response;
    {
      MutexLock lock(mu_);
      have_response = slot.done;
    }
    uint64_t id = 0;
    if (!have_response) {
      uint64_t now = clock_();
      if (now >= deadline_ns) break;
      if (attempt > 0) {
        // Counted here — after the deadline checks and the arrived-late
        // check — so the counter only moves for retries actually sent.
        metrics.retries->Inc();
        if (FlightRecorder::enabled()) {
          FlightRecorder::Instance().RecordAt(
              clock_(), FlightEventKind::kRpcRetry, node_,
              static_cast<uint64_t>(attempt), static_cast<uint64_t>(type));
        }
      }
      // Fresh request id per attempt: responses stay attributable to the
      // attempt that solicited them even when the network duplicates.
      {
        MutexLock lock(mu_);
        id = next_id_++;
        pending_[id] = &slot;
        call_ids.push_back(id);
      }
      Frame frame;
      frame.type = type;
      frame.request_id = id;
      if (trace_wire) {
        frame.trace.trace_id = opts.trace.trace_id;
        frame.trace.span_id = call_span_id;
        frame.trace.parent_span_id = opts.trace.span_id;
      }
      frame.payload = payload;  // copied: later attempts resend it
      ++sends;
      if (FlightRecorder::enabled()) {
        FlightRecorder::Instance().RecordAt(
            clock_(), FlightEventKind::kRpcSend, node_, id,
            static_cast<uint64_t>(type));
      }
      Status sent = transport_->Send(node_, dst, std::move(frame));
      if (!sent.ok()) {
        last = sent;
        if (!IsRetryable(sent)) {
          forget_ids();
          metrics.errors->Inc();
          record_span(false);
          return sent;
        }
        continue;
      }
      const uint64_t wait_start_ns = clock_();
      const uint64_t attempt_deadline_ns =
          std::min(deadline_ns, wait_start_ns + opts.attempt_timeout_ns);
      const bool got = WaitForResponse(&slot, attempt_deadline_ns);
      wire_wait_ns += clock_() - wait_start_ns;
      if (!got) {
        // The id stays registered: if the response shows up while a
        // later attempt is in flight (or backing off), it completes the
        // call. Only call end abandons the ids.
        metrics.timeouts->Inc();
        if (FlightRecorder::enabled()) {
          FlightRecorder::Instance().RecordAt(
              clock_(), FlightEventKind::kRpcTimeout, node_, id,
              static_cast<uint64_t>(type));
        }
        last = Status::DeadlineExceeded(
            std::string("rpc ") + MessageTypeName(type) + " to node " +
            std::to_string(dst) + " timed out");
        continue;
      }
    }
    bool is_error;
    Status error;
    {
      MutexLock lock(mu_);
      is_error = slot.is_error;
      error = slot.error;
    }
    if (is_error) {
      last = error;
      if (!IsRetryable(error)) {
        forget_ids();
        metrics.errors->Inc();
        record_span(false);
        return error;
      }
      // Retrying after a server-delivered retryable error: the error
      // answered every outstanding id (the server is reachable), so
      // abandon them and arm the slot for the next attempt. Without the
      // reset a duplicate of the error reply could shadow the retry's
      // real answer.
      forget_ids();
      {
        MutexLock lock(mu_);
        slot.done = false;
        slot.is_error = false;
        slot.error = Status::OK();
        slot.payload.clear();
      }
      continue;
    }
    forget_ids();
    metrics.latency_us->Record(
        static_cast<int64_t>((clock_() - start_ns) / 1000));
    // A call that succeeded after N retries records N — traceable to a
    // query via the span note, aggregated across queries here.
    metrics.retries_per_call->Record(sends - 1);
    record_span(true);
    return std::move(slot.payload);
  }

  forget_ids();
  metrics.errors->Inc();
  record_span(false);
  if (clock_() >= deadline_ns && !last.IsDeadlineExceeded()) {
    return Status::DeadlineExceeded(
        std::string("rpc ") + MessageTypeName(type) + " to node " +
        std::to_string(dst) + " exceeded its deadline; last error: " +
        last.ToString());
  }
  return last;
}

Status BindNode(Transport* transport, int node, RpcServer* server,
                RpcClient* client) {
  return transport->Register(
      node, [server, client](int src, Frame frame) {
        const bool is_response = frame.type == MessageType::kAck ||
                                 frame.type == MessageType::kError;
        if (is_response) {
          if (client != nullptr) client->OnFrame(src, std::move(frame));
        } else if (server != nullptr) {
          server->OnFrame(src, std::move(frame));
        }
      });
}

}  // namespace net
}  // namespace scidb

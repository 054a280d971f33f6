#include "common/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/logging.h"
#include "common/trace.h"

namespace scidb {

namespace flight_internal {
std::atomic<bool> g_enabled{true};
}  // namespace flight_internal

bool IsValidFlightEventKind(uint8_t k) {
  return k >= static_cast<uint8_t>(FlightEventKind::kRpcSend) &&
         k <= static_cast<uint8_t>(FlightEventKind::kRereplicate);
}

const char* FlightEventKindName(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kRpcSend:
      return "RpcSend";
    case FlightEventKind::kRpcRecv:
      return "RpcRecv";
    case FlightEventKind::kRpcRetry:
      return "RpcRetry";
    case FlightEventKind::kRpcTimeout:
      return "RpcTimeout";
    case FlightEventKind::kFaultDrop:
      return "FaultDrop";
    case FlightEventKind::kFaultDup:
      return "FaultDup";
    case FlightEventKind::kFaultHold:
      return "FaultHold";
    case FlightEventKind::kFaultPartition:
      return "FaultPartition";
    case FlightEventKind::kCacheEvict:
      return "CacheEvict";
    case FlightEventKind::kMergePass:
      return "MergePass";
    case FlightEventKind::kShardScan:
      return "ShardScan";
    case FlightEventKind::kParallelFor:
      return "ParallelFor";
    case FlightEventKind::kMark:
      return "Mark";
    case FlightEventKind::kFailoverRead:
      return "FailoverRead";
    case FlightEventKind::kNodeDead:
      return "NodeDead";
    case FlightEventKind::kRereplicate:
      return "Rereplicate";
  }
  return "Unknown";
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_enabled(bool on) {
  flight_internal::g_enabled.store(on, std::memory_order_relaxed);  // relaxed-ok: kill switch; stale reads only skip/keep events
}

void FlightRecorder::Record(FlightEventKind kind, int32_t node, uint64_t a,
                            uint64_t b) {
  // Check the kill switch before reading the clock: a disabled Record
  // must cost one relaxed load, not a steady_clock syscall.
  if (!flight_internal::Enabled()) return;
  RecordAt(SteadyNowNs(), kind, node, a, b);
}

void FlightRecorder::RecordAt(uint64_t t_ns, FlightEventKind kind,
                              int32_t node, uint64_t a, uint64_t b) {
  if (!flight_internal::Enabled()) return;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: slot ownership only needs a unique value
  Slot& slot = ring_[seq & (kRingSize - 1)];
  const uint64_t meta =
      static_cast<uint64_t>(static_cast<uint8_t>(kind)) |
      (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32);
  slot.t_ns.store(t_ns, std::memory_order_relaxed);  // relaxed-ok: published by the stamp's release store below
  slot.meta.store(meta, std::memory_order_relaxed);  // relaxed-ok: published by the stamp's release store below
  slot.a.store(a, std::memory_order_relaxed);        // relaxed-ok: published by the stamp's release store below
  slot.b.store(b, std::memory_order_relaxed);        // relaxed-ok: published by the stamp's release store below
  slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  const uint64_t n = next_.load(std::memory_order_acquire);
  const uint64_t start = n > kRingSize ? n - kRingSize : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(n - start));
  for (uint64_t seq = start; seq < n; ++seq) {
    const Slot& slot = ring_[seq & (kRingSize - 1)];
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    FlightEvent e;
    e.seq = seq;
    e.t_ns = slot.t_ns.load(std::memory_order_relaxed);  // relaxed-ok: stamp re-check below rejects torn reads
    const uint64_t meta = slot.meta.load(std::memory_order_relaxed);  // relaxed-ok: stamp re-check below rejects torn reads
    e.a = slot.a.load(std::memory_order_relaxed);  // relaxed-ok: stamp re-check below rejects torn reads
    e.b = slot.b.load(std::memory_order_relaxed);  // relaxed-ok: stamp re-check below rejects torn reads
    const uint8_t raw_kind = static_cast<uint8_t>(meta & 0xFF);
    if (!IsValidFlightEventKind(raw_kind)) continue;
    e.kind = static_cast<FlightEventKind>(raw_kind);
    e.node = static_cast<int32_t>(static_cast<uint32_t>(meta >> 32));
    if (slot.stamp.load(std::memory_order_acquire) != seq + 1) continue;
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::DumpToString() const {
  const std::vector<FlightEvent> events = Dump();
  std::ostringstream out;
  out << "flight recorder: " << events.size()
      << " event(s), oldest first (ring " << kRingSize << ")\n";
  for (const FlightEvent& e : events) {
    out << "  seq=" << e.seq << " t=" << e.t_ns << "ns "
        << FlightEventKindName(e.kind) << " node=" << e.node << " a=" << e.a
        << " b=" << e.b << "\n";
  }
  return out.str();
}

void FlightRecorder::DumpToStderr() const {
  const std::string text = DumpToString();
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

void FlightRecorder::Clear() {
  next_.store(0, std::memory_order_relaxed);  // relaxed-ok: test-only reset, callers quiesce writers first
  for (Slot& slot : ring_) {
    slot.stamp.store(0, std::memory_order_relaxed);  // relaxed-ok: test-only reset, callers quiesce writers first
  }
}

// SCIDB_CHECK's abort path: the recorder is lock-free and never checks, so
// dumping it here cannot re-enter this destructor.
internal::FatalLogMessage::~FatalLogMessage() {
  std::cerr << stream_.str() << std::endl;
  FlightRecorder::Instance().DumpToStderr();
  std::abort();
}

}  // namespace scidb

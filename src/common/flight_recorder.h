#ifndef SCIDB_COMMON_FLIGHT_RECORDER_H_
#define SCIDB_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scidb {

// Process-wide flight recorder (DESIGN.md §12): a fixed-size lock-free ring
// of structured events written from the hottest paths in the system (RPC
// send/recv/retry, injected faults, cache evictions, merger passes, shard
// scans). Writers never block and never allocate; a write is a relaxed
// fetch_add plus five relaxed/release stores, so the recorder is safe to
// call from fault-injection and abort paths. The ring keeps the newest
// kRingSize events — older ones are overwritten silently (crash forensics
// want the *end* of the timeline, not the beginning).
//
// Readers (Dump) are best-effort under concurrent writes: a slot whose
// sequence stamp does not match the expected value — mid-write or already
// overwritten — is skipped. At quiescence Dump is exact.

// Event vocabulary. Tracked by the staticcheck protocol-drift pass
// (tools/staticcheck/protocol.manifest): every switch over this enum must
// name every enumerator, so adding a kind cannot silently miss a site.
enum class FlightEventKind : uint8_t {
  kRpcSend = 1,         // client sent a request frame (a=request id, b=type)
  kRpcRecv = 2,         // server received a request (a=request id, b=type)
  kRpcRetry = 3,        // client re-sent after a failed attempt (a=attempt)
  kRpcTimeout = 4,      // client attempt timed out (a=request id)
  kFaultDrop = 5,       // injected drop (a=request id, b=type)
  kFaultDup = 6,        // injected duplicate (a=request id, b=type)
  kFaultHold = 7,       // frame held for delay/reorder (a=request id, b=type)
  kFaultPartition = 8,  // frame eaten by a partition (a=request id, b=type)
  kCacheEvict = 9,      // chunk-cache LRU eviction (a=bytes freed)
  kMergePass = 10,      // background merger pass (a=chunks merged)
  kShardScan = 11,      // grid shard scan (a=cells, b=bytes)
  kParallelFor = 12,    // morsel fan-out (a=morsels, b=width)
  kMark = 13,           // free-form user marker
  kFailoverRead = 14,   // read degraded to replicas (a=slot, b=dead count)
  kNodeDead = 15,       // node declared dead (a=consecutive failures)
  kRereplicate = 16,    // recovery copied a chunk (a=source, b=target)
};

// True if `k` names one of the enumerators above; wire decode rejects the
// rest so Dump consumers never see an out-of-vocabulary kind.
bool IsValidFlightEventKind(uint8_t k);

// "RpcSend", "FaultDrop", ... for dumps and logs.
const char* FlightEventKindName(FlightEventKind k);

struct FlightEvent {
  uint64_t seq = 0;   // global sequence number, 0-based, gap-free per writer
  uint64_t t_ns = 0;  // timestamp (steady clock, or injected via RecordAt)
  FlightEventKind kind = FlightEventKind::kMark;
  int32_t node = -1;  // transport node id, -1 = not node-scoped
  uint64_t a = 0;     // kind-specific payload (see enum comments)
  uint64_t b = 0;
};

namespace flight_internal {
// Kill switch, mirroring the metrics registry's: one relaxed atomic load on
// the hot path, so a disabled recorder costs single-digit nanoseconds
// (bench_trace measures it).
extern std::atomic<bool> g_enabled;
inline bool Enabled() {
  return g_enabled.load(std::memory_order_relaxed);  // relaxed-ok: kill switch; stale reads only skip/keep events
}
}  // namespace flight_internal

class FlightRecorder {
 public:
  // Ring capacity; power of two so the slot index is a mask, not a modulo.
  static constexpr size_t kRingSize = 4096;

  static FlightRecorder& Instance();

  static void set_enabled(bool on);
  static bool enabled() { return flight_internal::Enabled(); }

  // Records one event stamped with the steady clock. No-op when disabled.
  void Record(FlightEventKind kind, int32_t node, uint64_t a = 0,
              uint64_t b = 0);

  // Records one event with a caller-supplied timestamp — the hook for
  // sites that run on an injectable clock (RPC layer, grid), so virtual-
  // time tests get deterministic timelines.
  void RecordAt(uint64_t t_ns, FlightEventKind kind, int32_t node,
                uint64_t a = 0, uint64_t b = 0);

  // Snapshot of the surviving events, oldest first. Best-effort under
  // concurrent writes (see file comment); exact at quiescence.
  std::vector<FlightEvent> Dump() const;

  // "seq=.. t=..ns Kind node=..." lines, oldest first, with a header.
  std::string DumpToString() const;

  // Dump straight to stderr — called from SCIDB_CHECK's abort path so a
  // failed invariant comes with the event timeline that led to it.
  void DumpToStderr() const;

  // Forgets all events. Test-only: not safe against concurrent writers.
  void Clear();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;

  // Seqlock-style slot: `stamp` holds seq+1 of the event occupying the
  // slot; a reader accepts the fields only if the stamp matches before and
  // after reading them.
  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> t_ns{0};
    std::atomic<uint64_t> meta{0};  // kind in low 8 bits, node in high 32
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  std::atomic<uint64_t> next_{0};  // next sequence number to allocate
  Slot ring_[kRingSize];
};

}  // namespace scidb

#endif  // SCIDB_COMMON_FLIGHT_RECORDER_H_

#ifndef SCIDB_SERVER_FAIR_SCHEDULER_H_
#define SCIDB_SERVER_FAIR_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "exec/slice_gate.h"

namespace scidb {
namespace server {

// Time-slices the server's one shared morsel pool across concurrent
// queries (DESIGN.md §15). Each admitted query gets a SliceGate; the
// engine acquires the gate, runs at most slice_morsels() morsels, and
// releases it (exec/parallel.cc). Grants are strict FIFO — a ticket
// queue, not a bare condition variable — so a cheap query behind a
// heavy one waits for at most one slice per queued competitor, which is
// the fairness bound the EXP-SRV latency experiment measures.
//
// Cancellation: a waiter whose cancel flag is set abandons its ticket
// and returns Cancelled. The flag is observed at wakeups, so after
// setting it call Poke() to force one.
class FairScheduler {
 public:
  struct Options {
    // Width of the shared morsel pool (total worker threads including
    // each query's own driver when it participates).
    int pool_width = 4;
    // Morsels granted per gate acquisition. Smaller = fairer + more
    // scheduling overhead; 1 degenerates to round-robin per morsel.
    int64_t slice_morsels = 4;
  };

  explicit FairScheduler(Options opts);

  ThreadPool* pool() { return &pool_; }
  int64_t slice_morsels() const { return opts_.slice_morsels; }

  // A gate for one query. `cancel` may be null (never cancelled); when
  // non-null it must outlive the gate. Gates are cheap; one per query.
  std::unique_ptr<SliceGate> MakeGate(const std::atomic<bool>* cancel);

  // Wakes every queued Acquire so it can observe its cancel flag.
  void Poke() LOCKS_EXCLUDED(mu_);

 private:
  class Gate;

  Status AcquireSlice(const std::atomic<bool>* cancel) LOCKS_EXCLUDED(mu_);
  void ReleaseSlice() LOCKS_EXCLUDED(mu_);

  const Options opts_;
  ThreadPool pool_;  // NOLINT(lock-coverage): internally synchronized
  Counter* const slices_;  // scidb.server.scheduler_slices

  Mutex mu_;
  CondVar cv_;
  bool busy_ GUARDED_BY(mu_) = false;
  uint64_t next_ticket_ GUARDED_BY(mu_) = 1;
  std::deque<uint64_t> queue_ GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace scidb

#endif  // SCIDB_SERVER_FAIR_SCHEDULER_H_

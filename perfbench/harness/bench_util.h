#ifndef SCIDB_PERFBENCH_BENCH_UTIL_H_
#define SCIDB_PERFBENCH_BENCH_UTIL_H_

// Shared plumbing of the one-command benchmark: sample statistics,
// result fingerprints for the oracles, the in-memory span recorder of
// the traced run, and the metric sink every workload reports into.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "array/mem_array.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/trace.h"

namespace scidb {
namespace perfbench {

// What the command line asks for.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // scratch + span dumps
  bool corrupt = false;  // self-test: flip one result before checking
  // Set-ups per run; setup_s is their median. 0 = the workload's own
  // count.
  int setup_reps = 0;
};

inline double NowS() { return static_cast<double>(SteadyNowNs()) * 1e-9; }

// Sample of one timing (or any measured quantity).
class Sample {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Sample& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t n() const { return v_.size(); }
  // Linear interpolation between closest ranks; p in [0, 1].
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

// Order-sensitive 64-bit hash of an array's present cells: coordinates,
// attribute null flags and the exact bit patterns of the values. Two
// arrays hash equal iff (up to collisions) they are bit-identical cell
// for cell.
uint64_t Fingerprint(const MemArray& a);

// Same present cells, same nulls, and every numeric value within
// `rel` (relative to max(1, |want|)) of `want`'s; counts cells that are
// not bit-identical into *inexact when non-null.
bool NearlyEqual(const MemArray& got, const MemArray& want, double rel,
                 int64_t* inexact);

// Self-test hook: perturbs the first present cell's first attribute so
// the oracle must flag the result.
void CorruptOneCell(MemArray* a);

// Peak resident set of this process in MB.
double PeakRssMb();

// ---- traced-run spans -----------------------------------------------------

// The layers a span is attributed to: the repo's modules, plus "bench"
// for the harness's own op roots (whose self time is unattributed).
enum class Layer { kBench, kQuery, kExec, kCook, kStorage, kVersion,
                   kServer, kNet, kGrid };
const char* LayerName(Layer l);
constexpr int kNumLayers = 9;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = op root
  uint64_t op = 0;      // shared by every span of one op
  std::string name;
  Layer layer = Layer::kBench;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Keeps spans in memory; thread-safe. Disabled recorders drop
// everything at the cost of one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NewOp();
  // A fresh span id, so children can name a parent that is still open.
  uint64_t ReserveId();
  // Records a finished span under a reserved id.
  void Record(uint64_t id, uint64_t op, uint64_t parent, std::string name,
              Layer layer, uint64_t start_ns, uint64_t end_ns);
  // Reserve + Record; returns the id (0 when disabled).
  uint64_t Add(uint64_t op, uint64_t parent, std::string name, Layer layer,
               uint64_t start_ns, uint64_t end_ns);
  // Grafts an explain-analyze tree under `parent`: parse and optimize
  // become query spans, operators exec spans, scans storage spans (disk
  // reads) or version spans (shared-catalog snapshots). The tree holds
  // durations only; children are laid end to end from `start_ns`.
  void AddQueryTrace(uint64_t op, uint64_t parent, const QueryTrace& t,
                     uint64_t start_ns);
  // Grafts a DistributedArray op tree (grid op → node → rpc → server
  // handler): rpc spans are net, handler spans and the op itself grid.
  void AddGridTrace(uint64_t op, uint64_t parent, const TraceNode& n,
                    uint64_t start_ns);

  // Self time per layer (ns): a span's duration minus the time its
  // children cover. Children of one parent may run in parallel (grid
  // fan-out); their durations are then scaled down to the parent's, so
  // the per-layer parts never add up to more than the wall time.
  std::vector<double> SelfNsByLayer() const;
  // Summed duration of the op roots: the time the breakdown divides up
  // (more than the wall time when ops run concurrently).
  double RootNs() const;
  size_t size() const;
  // Writes every span as one JSON document.
  bool Dump(const std::string& path) const;

 private:
  const bool enabled_;
  mutable Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t next_op_ GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// RAII span: records [construction, Close() or destruction).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, uint64_t op, uint64_t parent, const char* name,
             Layer layer)
      : t_(t), op_(op), parent_(parent), name_(name), layer_(layer),
        id_(t->ReserveId()), start_(t->enabled() ? SteadyNowNs() : 0) {}
  ~ScopedSpan() { Close(); }
  void Close() {
    if (!closed_ && t_->enabled()) {
      t_->Record(id_, op_, parent_, name_, layer_, start_, SteadyNowNs());
    }
    closed_ = true;
  }
  uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  uint64_t op_, parent_;
  const char* name_;
  Layer layer_;
  uint64_t id_;
  uint64_t start_;
  bool closed_ = false;
};

// ---- metric sink ------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports back to main.
struct Report {
  std::map<std::string, Metric> metrics;   // end-to-end
  std::map<std::string, Metric> activity;  // per-layer counters of the loop
  std::vector<std::pair<std::string, std::string>> info;  // human lines
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;  // oracle disagreements (counted in failed)

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Activity(const std::string& name, double value,
                const std::string& unit) {
    activity[name] = Metric{value, unit};
  }
  void Info(const std::string& k, const std::string& v) {
    info.push_back({k, v});
  }
  // Records one checked op.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Sets latency_p50_us and latency_p90_us from per-op latencies (us) and
// notes the sample count, with p99 when ten or more samples lie above
// it. p90, not p99, is the bounded tail: on a shared host a handful of
// scheduling stalls moves p99 by half between runs.
void SetLatency(Report* rep, const Sample& us, const std::string& op);

// Counter/histogram deltas of the process-wide metrics registry between
// construction and Stop().
class MetricsDelta {
 public:
  MetricsDelta() : before_(Metrics::Instance().Snapshot()) {}
  void Stop() { after_ = Metrics::Instance().Snapshot(); }
  int64_t Counter(const std::string& name) const;
  // Quantile of the samples recorded in between: the lower bound of the
  // histogram bucket holding the ranked sample (Histogram::Percentile's
  // convention); 0 when nothing was recorded.
  double HistQuantile(const std::string& name, double p) const;

 private:
  MetricsSnapshot before_;
  MetricsSnapshot after_;
};

std::string Fmt(double v, int prec = 4);

}  // namespace perfbench
}  // namespace scidb

#endif  // SCIDB_PERFBENCH_BENCH_UTIL_H_

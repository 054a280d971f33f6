#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "common/logging.h"

namespace scidb {
namespace perfbench {

double Sample::Quantile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void Mix(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
void MixPod(uint64_t* h, T v) {
  Mix(h, &v, sizeof(v));
}

void MixValue(uint64_t* h, const Value& v) {
  if (v.is_null()) {
    MixPod<uint8_t>(h, 0);
  } else if (v.is_bool()) {
    MixPod<uint8_t>(h, 1);
    MixPod<uint8_t>(h, v.bool_value() ? 1 : 0);
  } else if (v.is_int64()) {
    MixPod<uint8_t>(h, 2);
    MixPod(h, v.int64_value());
  } else if (v.is_double()) {
    MixPod<uint8_t>(h, 3);
    MixPod(h, v.double_value());  // bit pattern, so -0.0 != 0.0
  } else if (v.is_string()) {
    MixPod<uint8_t>(h, 4);
    Mix(h, v.string_value().data(), v.string_value().size());
  } else {
    MixPod<uint8_t>(h, 5);
    const std::string s = v.ToString();
    Mix(h, s.data(), s.size());
  }
}

}  // namespace

uint64_t Fingerprint(const MemArray& a) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const AttributeDesc& attr : a.schema().attrs()) {
    Mix(&h, attr.name.data(), attr.name.size());
  }
  a.ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    for (int64_t x : c) MixPod(&h, x);
    for (size_t k = 0; k < chunk.nattrs(); ++k) {
      const AttributeBlock& b = chunk.block(k);
      MixPod<uint8_t>(&h, b.IsNull(rank) ? 1 : 0);
      MixValue(&h, b.Get(rank));
    }
    return true;
  });
  return h;
}

bool NearlyEqual(const MemArray& got, const MemArray& want, double rel,
                 int64_t* inexact) {
  if (got.CellCount() != want.CellCount()) return false;
  bool ok = true;
  want.ForEachCell([&](const Coordinates& c, const Chunk& chunk,
                       int64_t rank) {
    std::optional<std::vector<Value>> g = got.GetCell(c);
    if (!g.has_value() || g->size() != chunk.nattrs()) {
      ok = false;
      return false;
    }
    for (size_t k = 0; k < chunk.nattrs(); ++k) {
      const Value w = chunk.block(k).Get(rank);
      const Value& v = (*g)[k];
      if (w.is_null() || v.is_null()) {
        ok = ok && w.is_null() && v.is_null();
        continue;
      }
      Result<double> wd = w.AsDouble();
      Result<double> vd = v.AsDouble();
      if (!wd.ok() || !vd.ok()) {
        ok = ok && w.ToString() == v.ToString();
        continue;
      }
      const double a = vd.value(), b = wd.value();
      if (std::memcmp(&a, &b, sizeof(a)) != 0 && inexact != nullptr) {
        ++*inexact;
      }
      ok = ok && std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
    }
    return ok;
  });
  return ok;
}

void CorruptOneCell(MemArray* a) {
  Coordinates first;
  std::vector<Value> vals;
  a->ForEachCell([&](const Coordinates& c, const Chunk& chunk, int64_t rank) {
    first = c;
    for (size_t k = 0; k < chunk.nattrs(); ++k) {
      vals.push_back(chunk.block(k).Get(rank));
    }
    return false;
  });
  if (vals.empty()) return;
  Result<double> d = vals[0].AsDouble();
  vals[0] = Value(d.ok() ? d.value() + 1.0 : 1.0);
  SCIDB_CHECK(a->SetCell(first, vals).ok());
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kQuery: return "query";
    case Layer::kExec: return "exec";
    case Layer::kCook: return "cook";
    case Layer::kStorage: return "storage";
    case Layer::kVersion: return "version";
    case Layer::kServer: return "server";
    case Layer::kNet: return "net";
    case Layer::kGrid: return "grid";
  }
  return "?";
}

uint64_t Tracer::NewOp() {
  if (!enabled_) return 0;
  MutexLock lk(mu_);
  return next_op_++;
}

uint64_t Tracer::ReserveId() {
  if (!enabled_) return 0;
  MutexLock lk(mu_);
  return next_id_++;
}

uint64_t Tracer::Add(uint64_t op, uint64_t parent, std::string name,
                     Layer layer, uint64_t start_ns, uint64_t end_ns) {
  const uint64_t id = ReserveId();
  Record(id, op, parent, std::move(name), layer, start_ns, end_ns);
  return id;
}

void Tracer::Record(uint64_t id, uint64_t op, uint64_t parent,
                    std::string name, Layer layer, uint64_t start_ns,
                    uint64_t end_ns) {
  if (!enabled_) return;
  MutexLock lk(mu_);
  Span s;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.name = std::move(name);
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = std::max(end_ns, start_ns);
  spans_.push_back(std::move(s));
}

namespace {

// Layer of one explain-analyze operator node.
Layer OperatorLayer(const TraceNode& n) {
  if (n.FindNote("snapshot") != nullptr) return Layer::kVersion;
  if (n.FindNote("disk_bytes_read") != nullptr) return Layer::kStorage;
  return Layer::kExec;
}

}  // namespace

void Tracer::AddQueryTrace(uint64_t op, uint64_t parent, const QueryTrace& t,
                           uint64_t start_ns) {
  if (!enabled_) return;
  uint64_t at = start_ns;
  Add(op, parent, "parse", Layer::kQuery, at, at + t.parse_ns);
  at += t.parse_ns;
  Add(op, parent, "optimize", Layer::kQuery, at, at + t.optimize_ns);
  at += t.optimize_ns;
  std::function<void(const TraceNode&, uint64_t, uint64_t)> walk =
      [&](const TraceNode& n, uint64_t par, uint64_t from) {
        uint64_t id = Add(op, par, n.label, OperatorLayer(n), from,
                          from + n.wall_ns);
        uint64_t child_at = from;
        for (const auto& c : n.children) {
          walk(*c, id, child_at);
          child_at += c->wall_ns;
        }
      };
  walk(t.root, parent, at);
}

void Tracer::AddGridTrace(uint64_t op, uint64_t parent, const TraceNode& n,
                          uint64_t start_ns) {
  if (!enabled_) return;
  // "node <i>" containers carry no time of their own: their rpc children
  // hang directly off the op span, so the fan-out is visible as
  // parallel children of one parent.
  std::function<void(const TraceNode&, uint64_t, uint64_t)> walk =
      [&](const TraceNode& t, uint64_t par, uint64_t from) {
        uint64_t id = par;
        if (t.label.rfind("node ", 0) != 0) {
          Layer layer = t.label.rfind("rpc", 0) == 0 ? Layer::kNet
                                                     : Layer::kGrid;
          id = Add(op, par, t.label, layer, from, from + t.wall_ns);
        }
        for (const auto& c : t.children) walk(*c, id, from);
      };
  walk(n, parent, start_ns);
}

std::vector<double> Tracer::SelfNsByLayer() const {
  MutexLock lk(mu_);
  std::map<uint64_t, size_t> index;
  std::map<uint64_t, double> child_sum;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_sum[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  // scale[id]: the share of a span's duration that counts, after its
  // parent's children were scaled to fit the parent.
  std::map<uint64_t, double> scale;
  std::function<double(uint64_t)> scale_of = [&](uint64_t id) -> double {
    auto it = scale.find(id);
    if (it != scale.end()) return it->second;
    const Span& s = spans_[index[id]];
    double f = 1.0;
    if (s.parent != 0 && index.count(s.parent) != 0) {
      const Span& p = spans_[index[s.parent]];
      const double pdur = static_cast<double>(p.end_ns - p.start_ns);
      const double sum = child_sum[s.parent];
      f = scale_of(s.parent) * (sum > pdur && sum > 0 ? pdur / sum : 1.0);
    }
    scale[id] = f;
    return f;
  };
  std::vector<double> out(kNumLayers, 0.0);
  for (const Span& s : spans_) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double sum = child_sum[s.id];
    const double covered = std::min(sum, dur);
    out[static_cast<int>(s.layer)] += (dur - covered) * scale_of(s.id);
  }
  return out;
}

double Tracer::RootNs() const {
  MutexLock lk(mu_);
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns;
}

size_t Tracer::size() const {
  MutexLock lk(mu_);
  return spans_.size();
}

bool Tracer::Dump(const std::string& path) const {
  MutexLock lk(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) name.push_back(c);
    }
    f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op << ", \"layer\": \"" << LayerName(s.layer)
      << "\", \"name\": \"" << name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void SetLatency(Report* rep, const Sample& us, const std::string& op) {
  rep->Set("latency_p50_us", us.Median(), "us");
  rep->Set("latency_p90_us", us.Quantile(0.9), "us");
  std::string note = op + ", " + std::to_string(us.n()) + " samples";
  if (static_cast<double>(us.n()) * 0.01 >= 10) {
    note += "; p99 " + Fmt(us.Quantile(0.99), 10) + " us";
  }
  rep->Info("latency", note);
}

int64_t MetricsDelta::Counter(const std::string& name) const {
  const auto* a = after_.find(name);
  const auto* b = before_.find(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

double MetricsDelta::HistQuantile(const std::string& name, double p) const {
  const auto* a = after_.find(name);
  if (a == nullptr) return 0;
  std::map<int64_t, int64_t> counts;
  for (const auto& [lo, n] : a->buckets) counts[lo] += n;
  if (const auto* b = before_.find(name)) {
    for (const auto& [lo, n] : b->buckets) counts[lo] -= n;
  }
  int64_t total = 0;
  for (const auto& [lo, n] : counts) total += n;
  if (total <= 0) return 0;
  const int64_t rank = static_cast<int64_t>(p * static_cast<double>(total - 1));
  int64_t seen = 0;
  for (const auto& [lo, n] : counts) {
    seen += n;
    if (seen > rank) return static_cast<double>(lo);
  }
  return static_cast<double>(counts.rbegin()->first);
}

std::string Fmt(double v, int prec) {
  std::ostringstream o;
  o.precision(prec);
  o << v;
  return o.str();
}

}  // namespace perfbench
}  // namespace scidb

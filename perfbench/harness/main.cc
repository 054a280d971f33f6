// scidb_perfbench: one workload, one seed, one run.
//
//   scidb_perfbench --workload ssdb|front_door|grid --seed N --seconds S
//                   --trace 0|1 [--out-dir DIR] [--commit SHA]
//   scidb_perfbench --self-test [--seed N]
//
// Untraced runs print every end-to-end metric. Traced runs print the
// per-layer metrics: the workload's own loop counters, the layer probes
// (the same for every workload) and the span accounting of a traced half
// of the loop against an untraced half. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>  // hardware_concurrency only

#include "workloads.h"

namespace scidb {
namespace perfbench {
namespace {

using RunFn = Report (*)(const Config&, Tracer*);

struct WorkloadDef {
  const char* name;
  RunFn run;
};

constexpr WorkloadDef kWorkloads[] = {
    {"ssdb", RunSsdb},
    {"front_door", RunFrontDoor},
    {"grid", RunGrid},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Layers with their own self-time share in the traced breakdown.
constexpr Layer kReportedLayers[] = {
    Layer::kQuery, Layer::kExec,   Layer::kCook, Layer::kStorage,
    Layer::kVersion, Layer::kServer, Layer::kNet, Layer::kGrid,
};

std::string JsonNumber(double v) {
  std::ostringstream o;
  o << std::setprecision(15) << v;
  return o.str();
}

void PrintContext(const Config& cfg, const std::string& commit) {
  std::cout << "context nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " commit=" << commit << " workload=" << cfg.workload
            << " seed=" << cfg.seed << " seconds=" << cfg.seconds
            << " trace=" << (cfg.trace ? 1 : 0) << "\n";
}

void PrintReport(const Report& r) {
  for (const auto& [k, v] : r.info) {
    std::cout << "info " << k << " = " << v << "\n";
  }
}

void PrintMetrics(const std::map<std::string, Metric>& m, const char* tag) {
  for (const auto& [name, metric] : m) {
    std::cout << tag << " " << name << " = " << JsonNumber(metric.value)
              << " " << metric.unit << "\n";
  }
}

// The final machine-readable line.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, Metric>& m) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << name << "\": {\"value\": " << JsonNumber(metric.value)
      << ", \"unit\": \"" << metric.unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

int RunUntraced(const WorkloadDef& w, const Config& cfg) {
  Tracer off(false);
  Report r = w.run(cfg, &off);
  PrintReport(r);
  PrintMetrics(r.metrics, "metric");
  std::cout << "failed_ratio = "
            << JsonNumber(r.attempted > 0 ? static_cast<double>(r.failed) /
                                                r.attempted
                                          : 1.0)
            << " (" << r.failed << " of " << r.attempted
            << " ops; oracle mismatches " << r.mismatches << ")\n";
  PrintResult(r.failed == 0 && r.attempted > 0, r.attempted, r.failed,
              r.metrics);
  return 0;
}

int RunTraced(const WorkloadDef& w, const Config& cfg) {
  // Untraced and traced halves of the same loop: their difference is the
  // tracing overhead, and the traced half's spans give the breakdown.
  Config half = cfg;
  half.seconds = cfg.seconds / 2;
  Tracer off(false);
  Report base = w.run(half, &off);
  Tracer on(true);
  Report traced = w.run(half, &on);
  PrintReport(traced);

  std::map<std::string, Metric> out = base.activity;
  int64_t attempted = base.attempted + traced.attempted;
  int64_t failed = base.failed + traced.failed;

  // The other workloads' loop counters, from one short untraced pass each.
  Config mini = cfg;
  mini.seconds = 0;
  mini.setup_reps = 1;
  for (const WorkloadDef& other : kWorkloads) {
    if (&other == &w) continue;
    mini.workload = other.name;
    Report r = other.run(mini, &off);
    for (const auto& [k, v] : r.activity) out[k] = v;
    attempted += r.attempted;
    failed += r.failed;
  }
  Report probes;
  RunLayerProbes(cfg, &probes);
  for (const auto& [k, v] : probes.activity) out[k] = v;

  // Span accounting of the traced half: each layer's self time as a share
  // of the summed op time, and the residual no layer span covers.
  const double op_ns = on.RootNs();
  const std::vector<double> self = on.SelfNsByLayer();
  double attributed = 0;
  for (Layer l : kReportedLayers) {
    const double ns = self[static_cast<int>(l)];
    attributed += ns;
    out[std::string("trace.self_pct.") + LayerName(l)] =
        Metric{100.0 * ns / op_ns, "%"};
  }
  out["trace.unattributed_ms"] = Metric{(op_ns - attributed) * 1e-6, "ms"};
  out["trace.unattributed_pct"] =
      Metric{100.0 * (op_ns - attributed) / op_ns, "%"};
  const double t_base = base.metrics.at("latency_p50_us").value;
  const double t_traced = traced.metrics.at("latency_p50_us").value;
  out["trace.overhead_pct"] = Metric{100.0 * (t_traced / t_base - 1.0), "%"};
  out["trace.spans"] = Metric{static_cast<double>(on.size()), "count"};

  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".json";
  if (!on.Dump(path)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "info spans written to " << path << "\n";
  PrintMetrics(out, "layer");
  PrintResult(failed == 0 && attempted > 0, attempted, failed, out);
  return 0;
}

// Every workload, briefly, once clean and once with one result
// corrupted: the clean pass must verify and the corrupted one must be
// flagged.
int SelfTest(Config cfg) {
  cfg.seconds = 0;
  cfg.setup_reps = 1;
  Tracer off(false);
  bool pass = true;
  for (const WorkloadDef& w : kWorkloads) {
    cfg.workload = w.name;
    cfg.corrupt = false;
    Report clean = w.run(cfg, &off);
    cfg.corrupt = true;
    Report bad = w.run(cfg, &off);
    const bool ok = clean.failed == 0 && clean.attempted > 0 &&
                    bad.mismatches > 0;
    std::cout << "self-test " << w.name << ": clean " << clean.failed
              << "/" << clean.attempted << " failed, corrupted "
              << bad.mismatches << " mismatch(es) flagged -> "
              << (ok ? "ok" : "FAIL") << "\n";
    pass = pass && ok;
  }
  return pass ? 0 : 1;
}

int Main(int argc, char** argv) {
  // Inputs come from --seed alone, never from the test-seed variable.
  unsetenv("SCIDB_TEST_SEED");
  Config cfg;
  std::string commit = "unknown";
  bool self_test = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = next();
    } else if (a == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(next());
    } else if (a == "--trace") {
      cfg.trace = next() != "0";
      have_trace = true;
    } else if (a == "--out-dir") {
      cfg.out_dir = next();
    } else if (a == "--commit") {
      commit = next();
    } else if (a == "--self-test") {
      self_test = true;
    } else {
      std::cerr << "unknown argument " << a << "\n";
      return 2;
    }
  }
  std::filesystem::create_directories(cfg.out_dir);
  if (self_test) return SelfTest(cfg);
  const WorkloadDef* w = FindWorkload(cfg.workload);
  if (w == nullptr || !have_trace || cfg.seconds < 0) {
    std::cerr << "usage: scidb_perfbench --workload ssdb|front_door|grid "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  PrintContext(cfg, commit);
  return cfg.trace ? RunTraced(*w, cfg) : RunUntraced(*w, cfg);
}

}  // namespace
}  // namespace perfbench
}  // namespace scidb

int main(int argc, char** argv) { return scidb::perfbench::Main(argc, argv); }

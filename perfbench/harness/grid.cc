// grid: a DistributedArray of a 256x256 sky on a 2x2 FixedGridPartitioner
// (64 chunks of 32x32) over loopback TCP, replication 1, no faults. One
// caller times Load, then loops a grand avg, an avg grouped by I (256
// groups) and a 64x64 ParallelSubsample. The only workload that reaches
// grid; net carries bulk shard bytes here rather than many small frames.

#include <memory>
#include <string>
#include <vector>

#include "../../bench/workloads.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/expression.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"
#include "query/session.h"
#include "workloads.h"

namespace scidb {
namespace perfbench {
namespace {

constexpr int64_t kSide = 256;
constexpr int64_t kChunk = 32;
constexpr int kSources = 20;
constexpr int64_t kBoxSide = 64;
// Set-ups before the loop, plus one more every kSetupEvery seconds of it:
// spread over the run, they sample a noisy host the way the rounds do.
constexpr int kSetupReps = 3;
constexpr double kSetupEvery = 1.0;
// Agreement demanded of grid results with single-node exec.
constexpr double kSingleNodeRel = 1e-12;

GridNetOptions NetOptions() {
  GridNetOptions net;
  net.transport = GridNetOptions::TransportKind::kTcp;
  net.replication = 1;
  net.fault_seed = 0;
  return net;
}

std::unique_ptr<DistributedArray> MakeGrid(const ArraySchema& schema) {
  auto part = std::make_shared<FixedGridPartitioner>(
      Box({1, 1}, {kSide, kSide}), std::vector<int64_t>{2, 2});
  return std::make_unique<DistributedArray>(schema, part, NetOptions());
}

struct GridTask {
  const char* name;
  std::vector<std::string> group;  // aggregate group dims
  bool subsample = false;
};

}  // namespace

Report RunGrid(const Config& cfg, Tracer* tracer) {
  Report rep;
  const MemArray sky =
      bench::MakeSkyImage(kSide, kChunk, kSources, MixSeed(cfg.seed, 21));
  const int64_t cells = sky.CellCount();
  Rng rng(MixSeed(cfg.seed, 22));
  // Half a chunk off the chunk grid, so every seed's box touches the same
  // number of chunks (3x3).
  const int64_t bi =
      kChunk * rng.UniformInt(0, kSide / kChunk - 3) + kChunk / 2 + 1;
  const int64_t bj =
      kChunk * rng.UniformInt(0, kSide / kChunk - 3) + kChunk / 2 + 1;
  const ExprPtr box = And(And(Ge(Ref("I"), Lit(bi)),
                              Le(Ref("I"), Lit(bi + kBoxSide - 1))),
                          And(Ge(Ref("J"), Lit(bj)),
                              Le(Ref("J"), Lit(bj + kBoxSide - 1))));
  const std::vector<GridTask> tasks = {
      {"ParallelAggregate(avg)", {}, false},
      {"ParallelAggregate(avg by I)", {"I"}, false},
      {"ParallelSubsample", {}, true},
  };

  // ---- oracles, computed once ----
  // (1) Single-node exec on the same MemArray at width 1: same cells and
  //     nulls; values equal up to summation order. The grid merges
  //     per-node partial states in node order, single-node exec in chunk
  //     order, so an avg can differ in its last bits (the repo's own grid
  //     property tests compare at 1e-9); `inexact` counts such cells.
  // (2) The same operation on an in-process (inline) grid of the same
  //     partitioning: bit-identical, the repo's results-identical-across-
  //     transports invariant.
  Session serial;
  const ExecContext ctx = serial.MakeContext();
  std::vector<MemArray> single;
  std::vector<uint64_t> want;
  {
    GridNetOptions inline_net = NetOptions();
    inline_net.transport = GridNetOptions::TransportKind::kInline;
    auto part = std::make_shared<FixedGridPartitioner>(
        Box({1, 1}, {kSide, kSide}), std::vector<int64_t>{2, 2});
    DistributedArray ref(sky.schema(), part, inline_net);
    SCIDB_CHECK(ref.Load(sky, /*time=*/1).ok());
    for (const GridTask& t : tasks) {
      single.push_back(t.subsample
                           ? Subsample(ctx, sky, box).ValueOrDie()
                           : Aggregate(ctx, sky, t.group, "avg", "flux")
                                 .ValueOrDie());
      MemArray r = t.subsample
                       ? ref.ParallelSubsample(ctx, box).ValueOrDie()
                       : ref.ParallelAggregate(ctx, t.group, "avg", "flux")
                             .ValueOrDie();
      want.push_back(Fingerprint(r));
    }
  }
  int64_t inexact = 0;

  // ---- set-up, several times; the last grid serves the loop (which adds
  // more set-up samples as it goes) ----
  Sample setup_s, load_ms;
  auto set_up = [&]() {
    const double t0 = NowS();
    std::unique_ptr<DistributedArray> g = MakeGrid(sky.schema());
    const double t1 = NowS();
    SCIDB_CHECK(g->Load(sky, /*time=*/1).ok());
    const double t2 = NowS();
    setup_s.Add(t2 - t0);
    load_ms.Add((t2 - t1) * 1e3);
    return g;
  };
  std::unique_ptr<DistributedArray> grid;
  const int reps = cfg.setup_reps > 0 ? cfg.setup_reps : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    grid.reset();
    grid = set_up();
  }

  // ---- timed loop ----
  std::vector<Sample> task_ms(tasks.size());
  Sample round_us;
  double cells_done = 0;
  int64_t ops = 0;
  int rounds = 0;
  bool corrupt_pending = cfg.corrupt;
  TraceNode trace_root;
  if (tracer->enabled()) grid->set_trace_node(&trace_root);
  MetricsDelta delta;
  const double t_start = NowS();
  const double t_end = t_start + cfg.seconds;
  double next_setup = t_start + kSetupEvery;
  int64_t setup_frames = 0, setup_bytes = 0;  // kept out of the per-op counts
  while (NowS() < t_end || rounds == 0) {
    if (NowS() >= next_setup) {
      // Between rounds, outside their timing: one more grid build + Load.
      MetricsDelta d;
      set_up().reset();
      d.Stop();
      setup_frames += d.Counter("scidb.net.frames_sent");
      setup_bytes += d.Counter("scidb.net.bytes_sent");
      next_setup += kSetupEvery;
    }
    double round_s = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      const GridTask& task = tasks[t];
      const uint64_t op = tracer->NewOp();
      ScopedSpan root(tracer, op, 0, task.name, Layer::kBench);
      const uint64_t s0 = SteadyNowNs();
      Result<MemArray> r =
          task.subsample
              ? grid->ParallelSubsample(ctx, box)
              : grid->ParallelAggregate(ctx, task.group, "avg", "flux");
      const uint64_t s1 = SteadyNowNs();
      root.Close();
      if (tracer->enabled() && !trace_root.children.empty()) {
        // The array's own op tree: grid op -> per-node rpc -> handler.
        tracer->AddGridTrace(op, root.id(), *trace_root.children.back(), s0);
        trace_root.children.clear();
      }
      const double dt = static_cast<double>(s1 - s0) * 1e-9;
      bool ok = r.ok();
      if (ok) {
        MemArray& out = r.value();
        if (corrupt_pending && out.CellCount() > 0) {
          CorruptOneCell(&out);
          corrupt_pending = false;
        }
        int64_t n_inexact = 0;
        ok = Fingerprint(out) == want[t] &&
             NearlyEqual(out, single[t], kSingleNodeRel, &n_inexact);
        if (rounds == 0) inexact += n_inexact;
        if (!ok) ++rep.mismatches;
      }
      rep.Op(ok);
      task_ms[t].Add(dt * 1e3);
      round_s += dt;
      // Input cells analysed: a shard scan reads every cell; the
      // subsample's predicate reaches only the box.
      cells_done += task.subsample
                        ? static_cast<double>(kBoxSide * kBoxSide)
                        : static_cast<double>(cells);
      ++ops;
    }
    round_us.Add(round_s * 1e6);
    ++rounds;
  }
  delta.Stop();
  grid->set_trace_node(nullptr);

  rep.Set("setup_s", setup_s.Median(), "s");
  // Rates from the median round, which a noisy host moves less than the
  // mean: every round does the same work.
  const double round_s = round_us.Median() * 1e-6;
  rep.Set("qps", static_cast<double>(tasks.size()) / round_s, "1/s");
  rep.Set("cells_per_s", cells_done / rounds / round_s, "cells/s");
  rep.Info("load_cells_per_s",
           Fmt(static_cast<double>(cells) / (load_ms.Median() * 1e-3), 10) +
               " cells/s");
  SetLatency(&rep, round_us,
             "one grid round = grand avg, avg grouped by I, 64x64 "
             "subsample");
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");

  rep.Info("context",
           std::to_string(kSide) + "x" + std::to_string(kSide) + " doubles, " +
               std::to_string(sky.ChunkCount()) + " chunks of " +
               std::to_string(kChunk) + "x" + std::to_string(kChunk) +
               " on a 2x2 FixedGridPartitioner; transport tcp, replication "
               "1, no faults; fan-out pool one worker per node; oracles at "
               "width 1");
  for (size_t t = 0; t < tasks.size(); ++t) {
    rep.Info(std::string("task.") + tasks[t].name + "_p50_ms",
             Fmt(task_ms[t].Median()));
  }
  rep.Info("cells_not_bit_identical_to_single_node",
           std::to_string(inexact) + " per round (within " +
               Fmt(kSingleNodeRel) + " relative; bit-identical to the "
               "inline-transport grid)");

  // ---- per-layer activity (reported by traced runs) ----
  rep.Activity("grid.aggregate_ms",
               (task_ms[0].Median() + task_ms[1].Median()) / 2, "ms");
  rep.Activity("grid.subsample_ms", task_ms[2].Median(), "ms");
  rep.Activity("grid.load_ms", load_ms.Median(), "ms");
  rep.Activity("grid.bytes_scanned_per_op",
               static_cast<double>(delta.Counter("scidb.grid.bytes_scanned")) /
                   static_cast<double>(ops), "B");
  rep.Activity("net.frames_per_op.grid",
               static_cast<double>(delta.Counter("scidb.net.frames_sent") -
                                   setup_frames) /
                   static_cast<double>(ops), "count");
  rep.Activity("net.bytes_per_op.grid",
               static_cast<double>(delta.Counter("scidb.net.bytes_sent") -
                                   setup_bytes) /
                   static_cast<double>(ops), "B");
  rep.Activity("net.retries.grid",
               static_cast<double>(delta.Counter("scidb.net.retries")),
               "count");
  return rep;
}

}  // namespace perfbench
}  // namespace scidb

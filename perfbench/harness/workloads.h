#ifndef SCIDB_PERFBENCH_WORKLOADS_H_
#define SCIDB_PERFBENCH_WORKLOADS_H_

// The three workloads and the per-layer probes. Each workload sets up
// several times (setup_s is the median), runs its timed loop for
// Config::seconds, and checks every result against an oracle computed
// once at set-up. With Config::trace the same loop runs traced and the
// report carries the per-layer breakdown instead of end-to-end figures.

#include "bench_util.h"

namespace scidb {
namespace perfbench {

// SS-DB cook/detect/regrid/window/filter/box-read over a stored
// 512x512 sky image (storage + exec + cook).
Report RunSsdb(const Config& cfg, Tracer* tracer);

// Closed loop of QueryClients against one QueryServer over loopback TCP
// (query + server + version + net).
Report RunFrontDoor(const Config& cfg, Tracer* tracer);

// ParallelAggregate / ParallelSubsample over a 2x2 TCP grid (grid + net).
Report RunGrid(const Config& cfg, Tracer* tracer);

// Times calls into each module's public functions on seeded inputs
// shaped like the workloads; identical for every workload, so every
// traced run reports every per-layer metric.
void RunLayerProbes(const Config& cfg, Report* out);

}  // namespace perfbench
}  // namespace scidb

#endif  // SCIDB_PERFBENCH_WORKLOADS_H_

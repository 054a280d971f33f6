// Replication write-path and recovery idempotency (DESIGN.md §13): a
// duplicated or replayed ChunkPut — an RPC retry, a fault-injected
// duplicate frame, or a replayed recovery copy — must not double-apply.
// The proof is differential: a run whose every frame is delivered twice
// ends in exactly the per-node chunk bytes and storage stats of the
// single-delivery run.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "grid/cluster.h"
#include "grid/partitioner.h"
#include "net/rpc.h"
#include "storage/chunk_serde.h"

namespace scidb {
namespace {

ArraySchema Sky() {
  return ArraySchema("sky", {{"ra", 1, 16, 4}, {"dec", 1, 16, 4}},
                     {{"flux", DataType::kDouble, true, false}});
}

MemArray UniformSky(uint64_t seed) {
  MemArray a(Sky());
  Rng rng(TestSeed(seed));
  for (int64_t i = 1; i <= 16; ++i) {
    for (int64_t j = 1; j <= 16; ++j) {
      SCIDB_CHECK(a.SetCell({i, j}, Value(rng.NextDouble())).ok());
    }
  }
  return a;
}

std::shared_ptr<FixedGridPartitioner> QuadPartitioner() {
  return std::make_shared<FixedGridPartitioner>(
      Box({1, 1}, {16, 16}), std::vector<int64_t>{2, 2});
}

// Serialized bytes of every chunk of every live shard, in (node,
// origin) order — the bit-level storage state the idempotency claims
// compare.
std::vector<std::vector<uint8_t>> StorageState(const DistributedArray& d,
                                               const std::set<int>& dead) {
  std::vector<std::vector<uint8_t>> state;
  for (int n = 0; n < d.num_nodes(); ++n) {
    if (dead.count(n) != 0) continue;
    for (const auto& [origin, chunk] : d.shard(n).chunks()) {
      (void)origin;
      state.push_back(SerializeChunk(*chunk));
    }
  }
  return state;
}

// Loads, kills, and recovers one grid under the given fault profile;
// returns it for state comparison. dead_after_failures = 1 so the
// single aggregate both detects the death and triggers recovery. The
// VirtualTime rides along: the grid's clock/sleep callbacks point into
// it, so it must outlive the grid (declared first — destroyed last).
struct KilledGrid {
  std::unique_ptr<net::VirtualTime> vt;
  std::unique_ptr<DistributedArray> grid;
  DistributedArray* operator->() const { return grid.get(); }
  DistributedArray& operator*() const { return *grid; }
};

KilledGrid RunKillAndRecover(const MemArray& src,
                             const net::FaultProfile& profile, int victim) {
  KilledGrid run;
  run.vt = std::make_unique<net::VirtualTime>();
  GridNetOptions net;
  net.fault_seed = 9;
  net.fault_profile = profile;
  net.call.max_attempts = 20;
  net.call.deadline_ns = 10'000'000'000'000ull;  // shared virtual clock
  net.clock = run.vt->clock();
  net.sleep = run.vt->sleep();
  net.replication = 2;
  net.dead_after_failures = 1;
  run.grid =
      std::make_unique<DistributedArray>(Sky(), QuadPartitioner(), net);
  DistributedArray* d = run.grid.get();
  SCIDB_CHECK(d->Load(src, 0).ok());
  SCIDB_CHECK(d->fault_injector() != nullptr);
  d->fault_injector()->PartitionNode(victim);
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  auto r = d->ParallelAggregate(ctx, {"ra"}, "avg", "flux");
  SCIDB_CHECK(r.ok());
  return run;
}

TEST(GridReplicationTest, DuplicatedRecoveryDoesNotDoubleApply) {
  // dup_p = 1 delivers every frame twice: every load-time ChunkPut,
  // every recovery ChunkGet/ChunkPut, every MarkDead. The storage
  // state must come out bit-identical to the single-delivery run, and
  // the stored-cell accounting must not double.
  MemArray src = UniformSky(53);
  const int victim = 2;

  KilledGrid once = RunKillAndRecover(src, net::FaultProfile{}, victim);
  net::FaultProfile all_dup;
  all_dup.dup_p = 1.0;
  KilledGrid twice = RunKillAndRecover(src, all_dup, victim);
  EXPECT_GT(twice->fault_injector()->frames_duplicated(), 0);

  const std::set<int> dead{victim};
  ASSERT_EQ(once->dead_nodes(), dead);
  ASSERT_EQ(twice->dead_nodes(), dead);
  EXPECT_EQ(StorageState(*once, dead), StorageState(*twice, dead));

  // cells_stored is re-derived from the shard on every ChunkPut, never
  // incremented — the duplicated run reports the same residency.
  // (Scan-side counters legitimately differ: a duplicated ScanShard
  // really is scanned twice.)
  std::vector<NodeStats> s1 = once->node_stats();
  std::vector<NodeStats> s2 = twice->node_stats();
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t n = 0; n < s1.size(); ++n) {
    EXPECT_EQ(s1[n].cells_stored, s2[n].cells_stored) << "node " << n;
    EXPECT_EQ(s1[n].bytes_stored, s2[n].bytes_stored) << "node " << n;
  }
}

TEST(GridReplicationTest, RecoveryIsIdempotent) {
  // A replayed recovery pass — the coordinator re-running after its
  // first pass already restored full k — must copy nothing and leave
  // the bits alone.
  MemArray src = UniformSky(59);
  KilledGrid d = RunKillAndRecover(src, net::FaultProfile{}, 1);
  const std::set<int> dead{1};
  ASSERT_EQ(d->dead_nodes(), dead);

  std::vector<std::vector<uint8_t>> before = StorageState(*d, dead);
  Result<int64_t> again = d->Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 0);
  EXPECT_EQ(StorageState(*d, dead), before);
}

TEST(GridReplicationTest, ReplayedLoadIsIdempotent) {
  // Replaying the whole load (same cells, same epoch) against a
  // replicated grid upserts every cell onto the same replicas: bits
  // and residency unchanged.
  MemArray src = UniformSky(61);
  GridNetOptions net;
  net.replication = 2;
  DistributedArray d(Sky(), QuadPartitioner(), net);
  ASSERT_TRUE(d.Load(src, 0).ok());
  std::vector<std::vector<uint8_t>> before = StorageState(d, {});
  std::vector<NodeStats> stats_before = d.node_stats();

  ASSERT_TRUE(d.Load(src, 0).ok());
  EXPECT_EQ(StorageState(d, {}), before);
  std::vector<NodeStats> stats_after = d.node_stats();
  ASSERT_EQ(stats_before.size(), stats_after.size());
  for (size_t n = 0; n < stats_before.size(); ++n) {
    EXPECT_EQ(stats_before[n].cells_stored, stats_after[n].cells_stored);
  }
}

TEST(GridReplicationTest, DuplicatedChunkPutLeavesTheSameShard) {
  // Every ChunkPut delivered twice — the RPC-retry case: the first copy
  // of a whole chunk is adopted into its free slot, the replay upserts
  // the same cells into it; one-cell writes land in held chunks. Shard
  // bits and stored-cell accounting match the single-delivery run.
  MemArray src = UniformSky(67);
  auto run = [&](double dup_p) {
    GridNetOptions net;
    net.fault_seed = 5;
    net.fault_profile = net::FaultProfile{};
    net.fault_profile.dup_p = dup_p;
    auto d = std::make_unique<DistributedArray>(Sky(), QuadPartitioner(),
                                                net);
    SCIDB_CHECK(d->Load(src, 0).ok());
    SCIDB_CHECK(d->SetCell({3, 3}, {Value(-1.0)}, 0).ok());
    SCIDB_CHECK(d->SetCell({16, 1}, {Value::Null()}, 0).ok());
    return d;
  };
  std::unique_ptr<DistributedArray> once = run(0.0);
  std::unique_ptr<DistributedArray> twice = run(1.0);
  EXPECT_GT(twice->fault_injector()->frames_duplicated(), 0);
  EXPECT_EQ(StorageState(*once, {}), StorageState(*twice, {}));
  std::vector<NodeStats> s1 = once->node_stats();
  std::vector<NodeStats> s2 = twice->node_stats();
  ASSERT_EQ(s1.size(), s2.size());
  int64_t cells = 0;
  for (size_t n = 0; n < s1.size(); ++n) {
    EXPECT_EQ(s1[n].cells_stored, s2[n].cells_stored) << "node " << n;
    EXPECT_EQ(s1[n].bytes_stored, s2[n].bytes_stored) << "node " << n;
    cells += s2[n].cells_stored;
  }
  EXPECT_EQ(cells, 256);
}

TEST(GridReplicationTest, BytesMovedCountsOnlyNodesNewToTheChunk) {
  // Moved bytes are bytes landing on a node that did not already hold
  // the chunk. At k=2 on two nodes every node already holds every
  // chunk, so re-sharding onto a range scheme moves nothing; at k=1 only
  // the chunks whose node changes move. ParallelSjoin's staging
  // re-shard and Repartition apply the same rule, so they agree.
  FunctionRegistry fns;
  AggregateRegistry aggs;
  ExecContext ctx{&fns, &aggs, true, nullptr};
  auto range = std::make_shared<RangePartitioner>(0, std::vector<int64_t>{8});
  ArraySchema sa("a", {{"x", 1, 16, 4}},
                 {{"u", DataType::kDouble, true, false}});
  ArraySchema sb("b", {{"x", 1, 16, 4}},
                 {{"w", DataType::kDouble, true, false}});
  DistributedArray da(sa, range);
  for (int64_t x = 1; x <= 16; ++x) {
    ASSERT_TRUE(da.SetCell({x}, {Value(static_cast<double>(x))}, 0).ok());
  }
  for (int k : {1, 2}) {
    GridNetOptions net;
    net.replication = k;
    DistributedArray db(sb, std::make_shared<HashPartitioner>(2), net);
    for (int64_t x = 1; x <= 16; ++x) {
      ASSERT_TRUE(
          db.SetCell({x}, {Value(static_cast<double>(-x))}, 0).ok());
    }
    int64_t sjoin_moved = -1;
    Result<MemArray> joined =
        da.ParallelSjoin(ctx, db, {{"x", "x"}}, &sjoin_moved);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined.value().CellCount(), 16) << "k=" << k;

    Result<int64_t> repartition_moved = db.Repartition(range, 0);
    ASSERT_TRUE(repartition_moved.ok())
        << repartition_moved.status().ToString();
    EXPECT_EQ(db.TotalCells(), 16 * k) << "k=" << k;

    const int64_t want = k == 1 ? 40 : 0;
    EXPECT_EQ(sjoin_moved, want) << "k=" << k;
    EXPECT_EQ(repartition_moved.value(), want) << "k=" << k;
    EXPECT_EQ(sjoin_moved, repartition_moved.value()) << "k=" << k;
  }
}

}  // namespace
}  // namespace scidb

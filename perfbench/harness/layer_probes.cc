// Per-layer probes: time calls into each module's public functions on
// seeded inputs shaped like the workloads. They run in every traced run,
// whichever workload it is, so each per-layer metric exists everywhere.

#include <functional>
#include <string>
#include <vector>

#include "../../bench/workloads.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cook/cooking.h"
#include "exec/expression.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/session.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "workloads.h"

namespace scidb {
namespace perfbench {
namespace {

constexpr int64_t kSide = 256;  // the ssdb image
constexpr int64_t kChunk = 32;
constexpr int kSources = 10;
constexpr int kWidth = 2;       // the ssdb pool width

// Median wall time of `reps` calls, in seconds.
double MedianTime(int reps, const std::function<void()>& fn) {
  Sample s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowS();
    fn();
    s.Add(NowS() - t0);
  }
  return s.Median();
}

// The statements the workloads send (ssdb and front_door shapes).
std::vector<std::string> Statements() {
  return {
      "select Apply(sky, cal, flux * 1.7 + -17)",
      "select Regrid(sky, [16, 16], avg(flux))",
      "select Window(sky, [1, 1], avg(flux))",
      "select Filter(sky, flux > 40)",
      "select Subsample(S, i >= 1 and i <= 16 and j >= 17 and j <= 32)",
      "select Filter(S, v > 50)",
      "select Aggregate(S, {}, avg(v))",
      "insert S [3, 7] values (12.25)",
  };
}

void ProbeQuery(Report* out) {
  const std::vector<std::string> stmts = Statements();
  std::vector<OpNodePtr> trees;
  for (const std::string& s : stmts) {
    Statement st = ParseStatement(s).ValueOrDie();
    if (st.query != nullptr) trees.push_back(st.query);
  }
  constexpr int kIters = 200;
  const double parse_s = MedianTime(5, [&] {
    for (int i = 0; i < kIters; ++i) {
      for (const std::string& s : stmts) SCIDB_CHECK(ParseStatement(s).ok());
    }
  });
  const double opt_s = MedianTime(5, [&] {
    for (int i = 0; i < kIters; ++i) {
      for (const OpNodePtr& t : trees) SCIDB_CHECK(OptimizeOpTree(t).ok());
    }
  });
  out->Activity("query.parse_us",
                parse_s * 1e6 / (kIters * static_cast<double>(stmts.size())),
                "us");
  out->Activity("query.optimize_us",
                opt_s * 1e6 / (kIters * static_cast<double>(trees.size())),
                "us");
}

void ProbeExecCookStorage(const Config& cfg, Report* out) {
  const MemArray image =
      bench::MakeSkyImage(kSide, kChunk, kSources, MixSeed(cfg.seed, 31));
  const double cells = static_cast<double>(image.CellCount());
  Session session;
  SCIDB_CHECK(session.set_parallelism(ParallelismOptions{kWidth}).ok());
  const ExecContext ctx = session.MakeContext();
  auto per_cell = [&](const char* name, const std::function<void()>& fn) {
    out->Activity(name, MedianTime(3, fn) * 1e9 / cells, "ns/cell");
  };
  per_cell("exec.filter_ns_per_cell", [&] {
    SCIDB_CHECK(Filter(ctx, image, Gt(Ref("flux"), Lit(40.0))).ok());
  });
  per_cell("exec.apply_ns_per_cell", [&] {
    SCIDB_CHECK(Apply(ctx, image, "cal", DataType::kDouble,
                      Add(Mul(Ref("flux"), Lit(1.7)), Lit(-17.0)))
                    .ok());
  });
  per_cell("exec.aggregate_ns_per_cell", [&] {
    SCIDB_CHECK(Aggregate(ctx, image, {"I"}, "avg", "flux").ok());
  });
  per_cell("exec.regrid_ns_per_cell", [&] {
    SCIDB_CHECK(Regrid(ctx, image, {16, 16}, "avg", "flux").ok());
  });
  per_cell("exec.window_ns_per_cell", [&] {
    SCIDB_CHECK(WindowAggregate(ctx, image, {1, 1}, "avg", "flux").ok());
  });
  per_cell("exec.subsample_ns_per_cell", [&] {
    SCIDB_CHECK(
        Subsample(ctx, image, Le(Ref("I"), Lit(int64_t{kSide / 2}))).ok());
  });
  MemArray cooked;
  per_cell("cook.calibrate_ns_per_cell", [&] {
    cooked = Calibrate(ctx, image, "flux", 1.7, -17.0).ValueOrDie();
  });
  per_cell("cook.detect_ns_per_cell", [&] {
    SCIDB_CHECK(DetectSources(cooked, "flux_cal", 51.0).ok());
  });

  // Chunk serde and the block codec, over the image's chunks.
  std::vector<const Chunk*> chunks;
  for (const auto& [origin, chunk] : image.chunks()) {
    chunks.push_back(chunk.get());
  }
  std::vector<std::vector<uint8_t>> serial(chunks.size());
  std::vector<std::vector<uint8_t>> packed(chunks.size());
  double serial_mb = 0;
  const double enc_s = MedianTime(3, [&] {
    for (size_t i = 0; i < chunks.size(); ++i) {
      serial[i] = SerializeChunk(*chunks[i]);
    }
  });
  for (const auto& s : serial) serial_mb += static_cast<double>(s.size()) / 1e6;
  const double dec_s = MedianTime(3, [&] {
    for (const auto& s : serial) {
      SCIDB_CHECK(DeserializeChunk(s, image.schema().attrs()).ok());
    }
  });
  const double comp_s = MedianTime(3, [&] {
    for (size_t i = 0; i < serial.size(); ++i) {
      packed[i] = Compress(CodecType::kLz, serial[i]);
    }
  });
  const double decomp_s = MedianTime(3, [&] {
    for (const auto& p : packed) SCIDB_CHECK(Decompress(p).ok());
  });
  // Rates are in serialized (pre-compression) MB on both sides.
  out->Activity("storage.encode_mb_per_s", serial_mb / enc_s, "MB/s");
  out->Activity("storage.decode_mb_per_s", serial_mb / dec_s, "MB/s");
  out->Activity("storage.compress_mb_per_s", serial_mb / comp_s, "MB/s");
  out->Activity("storage.decompress_mb_per_s", serial_mb / decomp_s, "MB/s");
}

void ProbeNet(Report* out) {
  // One echo RPC over loopback TCP, node 1 -> node 0.
  net::LoopbackTcpTransport transport;
  net::RpcServer server(&transport, 0);
  server.Handle(net::MessageType::kChunkGet,
                [](int, const std::vector<uint8_t>& payload)
                    -> Result<std::vector<uint8_t>> { return payload; });
  net::RpcClient client(&transport, 1);
  SCIDB_CHECK(net::BindNode(&transport, 0, &server, nullptr).ok());
  SCIDB_CHECK(net::BindNode(&transport, 1, nullptr, &client).ok());
  auto roundtrip_us = [&](size_t bytes, int calls) {
    const std::vector<uint8_t> payload(bytes, 0x5a);
    SCIDB_CHECK(client.Call(0, net::MessageType::kChunkGet, payload).ok());
    Sample s;
    for (int i = 0; i < calls; ++i) {
      const double t0 = NowS();
      SCIDB_CHECK(client.Call(0, net::MessageType::kChunkGet, payload).ok());
      s.Add((NowS() - t0) * 1e6);
    }
    return s.Median();
  };
  out->Activity("net.rpc_roundtrip_64b_us", roundtrip_us(64, 400), "us");
  out->Activity("net.rpc_roundtrip_64k_us", roundtrip_us(64 << 10, 100), "us");
  transport.Shutdown();

  net::Frame frame;
  frame.type = net::MessageType::kChunkPut;
  frame.request_id = 7;
  frame.payload.assign(64 << 10, 0x3c);
  constexpr int kFrames = 200;
  const double codec_s = MedianTime(3, [&] {
    for (int i = 0; i < kFrames; ++i) {
      SCIDB_CHECK(net::DecodeFrame(net::EncodeFrame(frame)).ok());
    }
  });
  out->Activity("net.frame_codec_mb_per_s",
                kFrames * static_cast<double>(frame.payload.size()) / 1e6 /
                    codec_s,
                "MB/s");
}

void ProbePool(Report* out) {
  ThreadPool pool(kWidth);
  constexpr int kCalls = 2000;
  const double s = MedianTime(5, [&] {
    for (int i = 0; i < kCalls; ++i) {
      SCIDB_CHECK(pool.ParallelFor(kWidth, [](int64_t) {
                        return Status::OK();
                      }).ok());
    }
  });
  out->Activity("pool.parallel_for_us", s * 1e6 / kCalls, "us");
}

}  // namespace

void RunLayerProbes(const Config& cfg, Report* out) {
  ProbeQuery(out);
  ProbeExecCookStorage(cfg, out);
  ProbeNet(out);
  ProbePool(out);
}

}  // namespace perfbench
}  // namespace scidb

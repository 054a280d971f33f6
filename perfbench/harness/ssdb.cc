// ssdb: SS-DB ingest plus analysis (Cheng & Rusu, arXiv:1305.1609) on one
// Session with attached storage. A 256x256 sky image streams into a
// fresh StorageManager; each round then cooks (Apply), detects sources,
// regrids, windows and filters the stored array in AQL, and re-reads one
// box. The chunk cache is a quarter of the array, so AQL scans (which
// always ReadAll) miss it while the box reads fit and hit.
//
// The image is 0.5 MiB decoded rather than a larger one: on a shared host
// a working set that spills the last-level cache made round times wander
// by a fifth between runs, against a few percent at this size.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "../../bench/workloads.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cook/cooking.h"
#include "query/session.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace scidb {
namespace perfbench {
namespace {

constexpr int64_t kSide = 256;
constexpr int64_t kChunk = 32;
constexpr int kSources = 10;
constexpr int kWidth = 2;
constexpr size_t kCacheBudget = 128u << 10;
// The loader flushes every ~3 chunk rows, splitting a few chunks across
// buckets; the merge folds those partial buckets (full ones are ~8 KiB).
constexpr size_t kLoaderBudget = 256u << 10;
constexpr int64_t kMergeSmallBytes = 4 << 10;
constexpr int64_t kBoxSide = 32;
constexpr int kBoxReads = 8;
// Set-ups before the loop, plus one more every kSetupEvery seconds of it:
// spread over the run, they sample a noisy host the way the rounds do.
constexpr int kSetupReps = 3;
constexpr double kSetupEvery = 2.0;
// Calibration (cook) and detection threshold, in raw and cooked units.
constexpr double kGain = 1.7;
constexpr double kOffset = -17.0;
constexpr double kRawThreshold = 40.0;

struct Planted {
  double x, y;
};

// MakeSkyImage draws its sources first (x, y, amp, sigma per source)
// from the seeded generator; replaying those draws recovers where the
// sources were planted.
std::vector<Planted> PlantedSources(uint64_t image_seed) {
  Rng rng(TestSeed(image_seed));
  std::vector<Planted> out;
  for (int s = 0; s < kSources; ++s) {
    double x = 1 + rng.NextDouble() * static_cast<double>(kSide - 1);
    double y = 1 + rng.NextDouble() * static_cast<double>(kSide - 1);
    (void)rng.NextDouble();
    (void)rng.NextDouble();
    out.push_back({x, y});
  }
  return out;
}

struct Task {
  std::string name;
  std::string aql;  // empty for the non-AQL tasks
};

bool SameDetections(const std::vector<Detection>& a,
                    const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].peak != b[i].peak || a[i].npix != b[i].npix ||
        std::memcmp(&a[i].peak_value, &b[i].peak_value, sizeof(double)) ||
        std::memcmp(&a[i].total_flux, &b[i].total_flux, sizeof(double))) {
      return false;
    }
  }
  return true;
}

// Every planted source's nearest pixel lies in some detection's box.
bool RecoversPlanted(const std::vector<Detection>& d,
                     const std::vector<Planted>& planted) {
  for (const Planted& p : planted) {
    Coordinates c{static_cast<int64_t>(std::lround(p.x)),
                  static_cast<int64_t>(std::lround(p.y))};
    bool found = false;
    for (const Detection& det : d) {
      if (det.bbox.Contains(c)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// One loaded copy of the image: storage, cache and the analysis session.
struct Loaded {
  std::string dir;
  std::unique_ptr<StorageManager> sm;
  DiskArray* disk = nullptr;
  std::unique_ptr<Session> session;
  double load_s = 0, merge_s = 0, setup_s = 0;
  int64_t flushes = 0;
  size_t buckets_loaded = 0, buckets_merged = 0;
};

std::unique_ptr<Loaded> LoadImage(const MemArray& image,
                                  const std::vector<double>& flux,
                                  const std::string& dir) {
  std::filesystem::remove_all(dir);
  auto out = std::make_unique<Loaded>();
  out->dir = dir;
  const double t0 = NowS();
  out->sm = std::make_unique<StorageManager>(dir);
  out->disk = out->sm->CreateArray(image.schema()).ValueOrDie();
  StreamLoader loader(out->disk, kLoaderBudget);
  size_t k = 0;
  for (int64_t i = 1; i <= kSide; ++i) {
    for (int64_t j = 1; j <= kSide; ++j) {
      SCIDB_CHECK(loader.Append({i, j}, {Value(flux[k++])}).ok());
    }
  }
  SCIDB_CHECK(loader.Finish().ok());
  SCIDB_CHECK(out->sm->FlushAll().ok());
  const double t1 = NowS();
  out->buckets_loaded = out->disk->bucket_count();
  SCIDB_CHECK(out->disk->MergeSmallBuckets(kMergeSmallBytes).ok());
  const double t2 = NowS();
  out->buckets_merged = out->disk->bucket_count();
  out->disk->EnableCache(kCacheBudget);
  out->session = std::make_unique<Session>();
  SCIDB_CHECK(out->session->set_parallelism(ParallelismOptions{kWidth}).ok());
  out->session->AttachStorage(out->sm.get());
  out->load_s = t1 - t0;
  out->merge_s = t2 - t1;
  out->setup_s = NowS() - t0;
  out->flushes = loader.flushes();
  return out;
}

void Unload(std::unique_ptr<Loaded> l) {
  const std::string dir = l->dir;
  l.reset();  // flushes and closes before the files go
  std::filesystem::remove_all(dir);
}

}  // namespace

Report RunSsdb(const Config& cfg, Tracer* tracer) {
  Report rep;
  const uint64_t image_seed = MixSeed(cfg.seed, 1);
  const MemArray image = bench::MakeSkyImage(kSide, kChunk, kSources,
                                             image_seed);
  const int64_t cells = image.CellCount();
  std::vector<double> flux;
  flux.reserve(static_cast<size_t>(cells));
  for (int64_t i = 1; i <= kSide; ++i) {
    for (int64_t j = 1; j <= kSide; ++j) {
      flux.push_back(image.GetCell({i, j}).value()[0].double_value());
    }
  }

  Rng rng(MixSeed(cfg.seed, 2));
  // Half a chunk off the chunk grid, so every seed's box reads the same
  // number of buckets (2x2).
  const int64_t bi =
      kChunk * rng.UniformInt(0, kSide / kChunk - 2) + kChunk / 2 + 1;
  const int64_t bj =
      kChunk * rng.UniformInt(0, kSide / kChunk - 2) + kChunk / 2 + 1;
  const Box box({bi, bj}, {bi + kBoxSide - 1, bj + kBoxSide - 1});
  const std::string box_pred =
      "I >= " + std::to_string(bi) + " and I <= " +
      std::to_string(bi + kBoxSide - 1) + " and J >= " + std::to_string(bj) +
      " and J <= " + std::to_string(bj + kBoxSide - 1);

  const std::vector<Task> tasks = {
      {"cook", "select Apply(sky, cal, flux * " + Fmt(kGain, 17) + " + " +
                   Fmt(kOffset, 17) + ")"},
      {"detect", ""},
      {"regrid", "select Regrid(sky, [16, 16], avg(flux))"},
      {"window", "select Window(sky, [1, 1], avg(flux))"},
      {"filter", "select Filter(sky, flux > " + Fmt(kRawThreshold, 17) + ")"},
      {"box_read", ""},
  };

  // ---- oracle: width-1 in-memory session, no storage ----
  Session oracle;
  SCIDB_CHECK(oracle.RegisterArray(std::make_shared<MemArray>(image)).ok());
  std::vector<uint64_t> want(tasks.size(), 0);
  MemArray cooked_ref;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].aql.empty()) continue;
    QueryResult r = oracle.Execute(tasks[t].aql).ValueOrDie();
    want[t] = Fingerprint(*r.array);
    if (tasks[t].name == "cook") cooked_ref = *r.array;
  }
  const double threshold = kGain * kRawThreshold + kOffset;
  const std::vector<Detection> detect_ref =
      DetectSources(cooked_ref, "cal", threshold).ValueOrDie();
  const bool planted_ok =
      RecoversPlanted(detect_ref, PlantedSources(image_seed));
  const uint64_t box_ref = Fingerprint(
      *oracle.Execute("select Subsample(sky, " + box_pred + ")")
           .ValueOrDie()
           .array);

  // ---- set-up, several times; the last copy serves the loop (which
  // adds more set-up samples as it goes) ----
  std::filesystem::create_directories(cfg.out_dir);
  Sample setup_s, load_cps;
  std::unique_ptr<Loaded> db;
  const int reps = cfg.setup_reps > 0 ? cfg.setup_reps : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    if (db) Unload(std::move(db));
    db = LoadImage(image, flux,
                   cfg.out_dir + "/ssdb-" + std::to_string(r));
    setup_s.Add(db->setup_s);
    load_cps.Add(static_cast<double>(cells) / db->load_s);
  }
  const StorageStats written = db->disk->stats();
  const double user_bytes = static_cast<double>(cells) * sizeof(double);
  const double stored_per_user =
      static_cast<double>(db->disk->LiveBytes()) / user_bytes;

  // ---- timed loop ----
  std::vector<Sample> task_us(tasks.size());
  Sample round_us;
  double cells_done = 0;
  const ChunkCache::Stats cache0 = db->disk->cache()->stats();
  const StorageStats disk0 = db->disk->stats();
  MetricsDelta delta;
  const double t_start = NowS();
  const double t_end = t_start + cfg.seconds;
  bool corrupt_pending = cfg.corrupt;
  int rounds = 0;
  MemArray cooked;
  double next_setup = t_start + kSetupEvery;
  while (NowS() < t_end || rounds == 0) {
    if (NowS() >= next_setup) {
      // Between rounds, outside their timing: one more ingest of the
      // image into a scratch directory.
      std::unique_ptr<Loaded> extra =
          LoadImage(image, flux, cfg.out_dir + "/ssdb-extra");
      setup_s.Add(extra->setup_s);
      load_cps.Add(static_cast<double>(cells) / extra->load_s);
      Unload(std::move(extra));
      next_setup += kSetupEvery;
    }
    double round_s = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      const Task& task = tasks[t];
      const uint64_t op = tracer->NewOp();
      ScopedSpan root(tracer, op, 0, task.name.c_str(), Layer::kBench);
      bool ok = true;
      MemArray result;
      std::vector<Detection> found;
      double task_cells = static_cast<double>(cells);
      const double t0 = NowS();
      if (!task.aql.empty() && tracer->enabled()) {
        // Traced: the program's own explain-analyze tree supplies the
        // parse / optimize / per-operator breakdown.
        const uint64_t s0 = SteadyNowNs();
        Result<QueryResult> r =
            db->session->Execute("explain analyze " + task.aql);
        const uint64_t s1 = SteadyNowNs();
        ok = r.ok() && r.value().trace != nullptr;
        if (ok) {
          uint64_t id = tracer->Add(op, root.id(), "Session::Execute",
                                    Layer::kQuery, s0, s1);
          tracer->AddQueryTrace(op, id, *r.value().trace, s0);
        }
      } else if (!task.aql.empty()) {
        Result<QueryResult> r = db->session->Execute(task.aql);
        ok = r.ok() && r.value().array != nullptr;
        if (ok) result = std::move(*r.value().array);
      } else if (task.name == "detect") {
        const MemArray& in = tracer->enabled() ? cooked_ref : cooked;
        ScopedSpan s(tracer, op, root.id(), "DetectSources", Layer::kCook);
        Result<std::vector<Detection>> r = DetectSources(in, "cal", threshold);
        ok = r.ok();
        if (ok) found = std::move(r).ValueOrDie();
      } else {
        ScopedSpan s(tracer, op, root.id(), "DiskArray::ReadRegion",
                     Layer::kStorage);
        for (int k = 0; k < kBoxReads && ok; ++k) {
          Result<MemArray> r = db->disk->ReadRegion(box);
          ok = r.ok();
          if (ok) result = std::move(r).ValueOrDie();
        }
        task_cells = static_cast<double>(kBoxSide * kBoxSide * kBoxReads);
      }
      const double dt = NowS() - t0;
      root.Close();
      // ---- check (outside the timed span) ----
      if (ok && corrupt_pending && result.CellCount() > 0) {
        CorruptOneCell(&result);
        corrupt_pending = false;
      }
      bool checked = true;
      if (!ok) {
        // a failed call counts as failed, whatever the mode
      } else if (task.name == "detect") {
        ok = SameDetections(found, detect_ref) && planted_ok;
      } else if (task.name == "box_read") {
        ok = Fingerprint(result) == box_ref;
      } else if (!tracer->enabled()) {
        ok = Fingerprint(result) == want[t];
        if (task.name == "cook") cooked = std::move(result);
      } else {
        checked = false;  // traced AQL returns a plan trace, not cells
      }
      if (checked) {
        rep.Op(ok);
        if (!ok) ++rep.mismatches;
      }
      task_us[t].Add(dt * 1e6);
      round_s += dt;
      cells_done += task_cells;
    }
    round_us.Add(round_s * 1e6);
    ++rounds;
  }
  delta.Stop();
  const ChunkCache::Stats cache1 = db->disk->cache()->stats();
  const StorageStats disk1 = db->disk->stats();

  rep.Set("setup_s", setup_s.Median(), "s");
  // Rates from the median round, which a noisy host moves less than the
  // mean: every round does the same work.
  const double round_s = round_us.Median() * 1e-6;
  rep.Set("qps", static_cast<double>(tasks.size()) / round_s, "1/s");
  rep.Set("cells_per_s", cells_done / rounds / round_s, "cells/s");
  rep.Info("load_cells_per_s", Fmt(load_cps.Median(), 10) + " cells/s");
  SetLatency(&rep, round_us,
             "one analysis round = cook, detect, regrid, window, filter, " +
                 std::to_string(kBoxReads) + " box reads");
  rep.Set("peak_rss_mb", PeakRssMb(), "MB");

  rep.Info("context",
           std::to_string(kSide) + "x" + std::to_string(kSide) +
               " doubles (" + Fmt(user_bytes / (1 << 20)) + " MiB decoded, " +
               std::to_string(kChunk) + "x" + std::to_string(kChunk) +
               " chunks, " + CodecTypeName(db->disk->codec()) +
               " codec) vs a " + std::to_string(kCacheBudget >> 10) +
               " KiB ChunkCache; pool width " + std::to_string(kWidth) +
               "; StreamLoader budget " + std::to_string(kLoaderBudget >> 10) +
               " KiB, then FlushAll and MergeSmallBuckets(< " +
               std::to_string(kMergeSmallBytes >> 10) + " KiB)");
  for (size_t t = 0; t < tasks.size(); ++t) {
    rep.Info("task." + tasks[t].name + "_p50_us", Fmt(task_us[t].Median()));
  }
  rep.Info("buckets", std::to_string(db->buckets_loaded) + " loaded, " +
                         std::to_string(db->buckets_merged) +
                         " after merge, " + std::to_string(db->flushes) +
                         " loader flushes");
  rep.Info("bytes_stored_per_user_byte", Fmt(stored_per_user));
  rep.Info("planted_sources_recovered", planted_ok ? "yes" : "no");

  // Per-layer activity of the loop (reported by traced runs).
  {
    ThreadPool pool(kWidth);
    Sample read_all_ms;
    for (int r = 0; r < 3; ++r) {
      const double t0 = NowS();
      SCIDB_CHECK(db->disk->ReadAll(&pool).ok());
      read_all_ms.Add((NowS() - t0) * 1e3);
    }
    rep.Activity("storage.read_all_ms", read_all_ms.Median(), "ms");
  }
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  rep.Activity("exec.cells_visited_per_round",
               static_cast<double>(delta.Counter("scidb.exec.cells_visited")) /
                   rounds, "count");
  rep.Activity("storage.cache_hits_per_round", hits / rounds, "count");
  rep.Activity("storage.cache_misses_per_round", misses / rounds, "count");
  rep.Activity("storage.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  rep.Activity("storage.bytes_read_per_round",
               static_cast<double>(disk1.bytes_read - disk0.bytes_read) /
                   rounds, "B");
  rep.Activity("storage.loader_flushes", static_cast<double>(db->flushes),
               "count");
  rep.Activity("storage.merge_ms", db->merge_s * 1e3, "ms");
  rep.Activity("storage.bytes_written_per_user_byte",
               static_cast<double>(written.bytes_written) / user_bytes,
               "ratio");
  Unload(std::move(db));
  return rep;
}

}  // namespace perfbench
}  // namespace scidb

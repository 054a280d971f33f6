#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/background_merger.h"
#include "storage/chunk_serde.h"
#include "storage/codec.h"
#include "storage/rtree.h"
#include "storage/storage_manager.h"

namespace scidb {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  std::string dir = (fs::temp_directory_path() /
                     ("scidb_test_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------- codecs

class CodecTest : public ::testing::TestWithParam<CodecType> {};

TEST_P(CodecTest, RoundTripVariousPayloads) {
  Rng rng(TestSeed(5));
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back({});                         // empty
  payloads.push_back({42});                       // single byte
  payloads.push_back(std::vector<uint8_t>(10000, 7));  // constant
  std::vector<uint8_t> random(5000);
  for (auto& b : random) b = static_cast<uint8_t>(rng.Next());
  payloads.push_back(random);                     // incompressible
  std::vector<uint8_t> repetitive;
  for (int i = 0; i < 500; ++i) {
    for (uint8_t b : {1, 2, 3, 4, 5, 6, 7, 8}) repetitive.push_back(b);
  }
  payloads.push_back(repetitive);                 // periodic

  for (const auto& in : payloads) {
    auto encoded = Compress(GetParam(), in);
    auto decoded = Decompress(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), in);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values(CodecType::kNone, CodecType::kRle,
                                           CodecType::kLz),
                         [](const auto& info) {
                           return CodecTypeName(info.param);
                         });

TEST(CodecCompressionTest, RleShrinksConstantData) {
  std::vector<uint8_t> in(100000, 0);
  EXPECT_LT(Compress(CodecType::kRle, in).size(), 100u);
}

TEST(CodecCompressionTest, LzShrinksRepetitiveData) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 2000; ++i) {
    const char* s = "sensor-reading:";
    in.insert(in.end(), s, s + 15);
    in.push_back(static_cast<uint8_t>(i & 0xF));
  }
  auto out = Compress(CodecType::kLz, in);
  EXPECT_LT(out.size(), in.size() / 3);
}

TEST(CodecCompressionTest, DecompressRejectsGarbage) {
  std::vector<uint8_t> junk = {99, 1, 2, 3};
  EXPECT_TRUE(Decompress(junk).status().IsCorruption());
  std::vector<uint8_t> truncated_lz = {2, 1, 200};  // match beyond output
  EXPECT_FALSE(Decompress(truncated_lz).ok());
}

// ------------------------------------------------------------- serde

TEST(ChunkSerdeTest, RoundTripDense) {
  std::vector<AttributeDesc> attrs = {
      {"v", DataType::kDouble, true, false},
      {"n", DataType::kInt64, true, false}};
  Chunk chunk(Box({1, 1}, {8, 8}), attrs);
  for (int64_t i = 1; i <= 8; ++i) {
    for (int64_t j = 1; j <= 8; ++j) {
      chunk.SetCell({i, j}, {Value(i * 0.5), Value(i * 100 + j)});
    }
  }
  Chunk back =
      DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  EXPECT_EQ(back.box(), chunk.box());
  EXPECT_EQ(back.present_count(), 64);
  EXPECT_EQ(back.GetCell({3, 4})[0].double_value(), 1.5);
  EXPECT_EQ(back.GetCell({3, 4})[1].int64_value(), 304);
}

TEST(ChunkSerdeTest, RoundTripSparseWithNulls) {
  std::vector<AttributeDesc> attrs = {
      {"s", DataType::kString, true, false},
      {"v", DataType::kDouble, true, false}};
  Chunk chunk(Box({1}, {100}), attrs);
  chunk.SetCell({7}, {Value(std::string("seven")), Value::Null()});
  chunk.SetCell({50}, {Value(std::string("")), Value(2.5)});
  Chunk back =
      DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  EXPECT_EQ(back.present_count(), 2);
  EXPECT_EQ(back.GetCell({7})[0].string_value(), "seven");
  EXPECT_TRUE(back.GetCell({7})[1].is_null());
  EXPECT_EQ(back.GetCell({50})[1].double_value(), 2.5);
  EXPECT_FALSE(back.IsPresentAt({8}));
}

TEST(ChunkSerdeTest, RoundTripUncertainConstStderr) {
  std::vector<AttributeDesc> attrs = {{"u", DataType::kDouble, true, true}};
  Chunk chunk(Box({1}, {50}), attrs);
  for (int64_t i = 1; i <= 50; ++i) {
    chunk.SetCell({i}, {Value(Uncertain(static_cast<double>(i), 0.25))});
  }
  auto bytes = SerializeChunk(chunk);
  Chunk back = DeserializeChunk(bytes, attrs).ValueOrDie();
  EXPECT_TRUE(back.block(0).has_constant_stderr());
  EXPECT_EQ(back.GetCell({9})[0].uncertain_value().stderr_, 0.25);
  EXPECT_EQ(back.GetCell({9})[0].uncertain_value().mean, 9.0);

  // Varying error bars survive too (and cost more space).
  Chunk chunk2(Box({1}, {50}), attrs);
  for (int64_t i = 1; i <= 50; ++i) {
    chunk2.SetCell({i}, {Value(Uncertain(1.0, 0.1 * static_cast<double>(i)))});
  }
  auto bytes2 = SerializeChunk(chunk2);
  EXPECT_GT(bytes2.size(), bytes.size());
  Chunk back2 = DeserializeChunk(bytes2, attrs).ValueOrDie();
  EXPECT_FALSE(back2.block(0).has_constant_stderr());
  EXPECT_DOUBLE_EQ(back2.GetCell({3})[0].uncertain_value().stderr_, 0.3);
}

TEST(ChunkSerdeTest, RoundTripNestedArrays) {
  std::vector<AttributeDesc> attrs = {{"hits", DataType::kArray, true,
                                       false}};
  Chunk chunk(Box({1}, {4}), attrs);
  auto nested = std::make_shared<NestedArray>();
  nested->shape = {2};
  nested->values = {Value(7.0), Value(9.0)};
  chunk.SetCell({2}, {Value(nested)});
  Chunk back = DeserializeChunk(SerializeChunk(chunk), attrs).ValueOrDie();
  auto v = back.GetCell({2})[0];
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.array_value()->shape, (std::vector<int64_t>{2}));
  EXPECT_EQ(v.array_value()->values[1].double_value(), 9.0);
}

TEST(ChunkSerdeTest, CorruptInputRejected) {
  std::vector<AttributeDesc> attrs = {{"v", DataType::kDouble, true, false}};
  Chunk chunk(Box({1}, {4}), attrs);
  chunk.SetCell({1}, {Value(1.0)});
  auto bytes = SerializeChunk(chunk);
  // Flip the magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_TRUE(DeserializeChunk(bad, attrs).status().IsCorruption());
  // Truncate.
  auto trunc = bytes;
  trunc.resize(trunc.size() / 2);
  EXPECT_FALSE(DeserializeChunk(trunc, attrs).ok());
  // Wrong attribute manifest.
  std::vector<AttributeDesc> wrong = {{"v", DataType::kInt64, true, false}};
  EXPECT_TRUE(DeserializeChunk(bytes, wrong).status().IsCorruption());
}

// ------------------------------------------------------------- R-tree

TEST(RTreeTest, InsertAndSearch) {
  RTree<int> tree;
  for (int i = 0; i < 100; ++i) {
    int64_t x = (i % 10) * 10 + 1;
    int64_t y = (i / 10) * 10 + 1;
    tree.Insert(Box({x, y}, {x + 9, y + 9}), i);
  }
  EXPECT_EQ(tree.size(), 100u);
  // Point query hits exactly one tile.
  auto hits = tree.Search(Box({15, 25}, {15, 25}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 21);  // col 1, row 2
  // Region query covering 4 tiles.
  auto four = tree.Search(Box({9, 9}, {12, 12}));
  EXPECT_EQ(four.size(), 4u);
  // Disjoint query.
  EXPECT_TRUE(tree.Search(Box({200, 200}, {300, 300})).empty());
}

TEST(RTreeTest, SearchMatchesBruteForce) {
  Rng rng(TestSeed(3));
  RTree<int> tree;
  std::vector<Box> boxes;
  for (int i = 0; i < 500; ++i) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Box b({x, y}, {x + rng.UniformInt(0, 50), y + rng.UniformInt(0, 50)});
    boxes.push_back(b);
    tree.Insert(b, i);
  }
  for (int q = 0; q < 50; ++q) {
    int64_t x = rng.UniformInt(0, 1000);
    int64_t y = rng.UniformInt(0, 1000);
    Box query({x, y}, {x + 100, y + 100});
    auto got = tree.Search(query);
    std::sort(got.begin(), got.end());
    std::vector<int> want;
    for (int i = 0; i < 500; ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "query " << query.ToString();
  }
}

TEST(RTreeTest, RemoveAndForEach) {
  RTree<int> tree;
  for (int i = 0; i < 50; ++i) {
    tree.Insert(Box({static_cast<int64_t>(i)}, {static_cast<int64_t>(i)}), i);
  }
  EXPECT_TRUE(tree.Remove(Box({25}, {25}), 25));
  EXPECT_FALSE(tree.Remove(Box({25}, {25}), 25));  // already gone
  EXPECT_EQ(tree.size(), 49u);
  EXPECT_TRUE(tree.Search(Box({25}, {25})).empty());
  int count = 0;
  tree.ForEach([&](const Box&, int) { ++count; });
  EXPECT_EQ(count, 49);
}

// -------------------------------------------------------- storage manager

ArraySchema SmallSchema(const std::string& name = "arr") {
  return ArraySchema(name, {{"I", 1, 100, 10}, {"J", 1, 100, 10}},
                     {{"v", DataType::kDouble, true, false}});
}

TEST(StorageManagerTest, WriteReadRoundTrip) {
  std::string dir = TempDir("rw");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(SmallSchema()).ValueOrDie();

  MemArray mem(SmallSchema());
  for (int64_t i = 1; i <= 100; i += 3) {
    ASSERT_TRUE(mem.SetCell({i, i}, Value(static_cast<double>(i))).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());

  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), mem.CellCount());
  EXPECT_EQ((*back.GetCell({4, 4}))[0].double_value(), 4.0);

  // Region read touches only intersecting buckets.
  MemArray region = arr->ReadRegion(Box({1, 1}, {10, 10})).ValueOrDie();
  EXPECT_EQ(region.CellCount(), 4);  // cells 1,4,7,10
  fs::remove_all(dir);
}

TEST(StorageManagerTest, ReadCell) {
  std::string dir = TempDir("cell");
  StorageManager sm(dir);
  DiskArray* arr = sm.CreateArray(SmallSchema()).ValueOrDie();
  MemArray mem(SmallSchema());
  ASSERT_TRUE(mem.SetCell({42, 17}, Value(3.5)).ok());
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  auto hit = arr->ReadCell({42, 17}).ValueOrDie();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].double_value(), 3.5);
  EXPECT_FALSE(arr->ReadCell({42, 18}).ValueOrDie().has_value());
  fs::remove_all(dir);
}

TEST(StorageManagerTest, PersistsAcrossReopen) {
  std::string dir = TempDir("reopen");
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.CreateArray(SmallSchema("persist")).ValueOrDie();
    MemArray mem(SmallSchema("persist"));
    ASSERT_TRUE(mem.SetCell({5, 5}, Value(55.0)).ok());
    ASSERT_TRUE(arr->WriteAll(mem).ok());
    ASSERT_TRUE(arr->Flush().ok());
  }
  {
    StorageManager sm(dir);
    DiskArray* arr = sm.OpenArray("persist").ValueOrDie();
    EXPECT_EQ(arr->schema().name(), "persist");
    EXPECT_EQ(arr->schema().ndims(), 2u);
    auto cell = arr->ReadCell({5, 5}).ValueOrDie();
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ((*cell)[0].double_value(), 55.0);
    auto names = sm.ArrayNames();
    EXPECT_EQ(names, (std::vector<std::string>{"persist"}));
  }
  fs::remove_all(dir);
}

TEST(StorageManagerTest, CreateOpenDropSemantics) {
  std::string dir = TempDir("cod");
  StorageManager sm(dir);
  ASSERT_TRUE(sm.CreateArray(SmallSchema("a")).ok());
  EXPECT_TRUE(sm.CreateArray(SmallSchema("a")).status().IsAlreadyExists());
  EXPECT_TRUE(sm.OpenArray("missing").status().IsNotFound());
  EXPECT_TRUE(sm.DropArray("a").ok());
  EXPECT_TRUE(sm.DropArray("a").IsNotFound());
  // OpenOrCreate creates, then opens.
  ASSERT_TRUE(sm.OpenOrCreateArray(SmallSchema("b")).ok());
  ASSERT_TRUE(sm.OpenOrCreateArray(SmallSchema("b")).ok());
  fs::remove_all(dir);
}

TEST(StorageManagerTest, CodecsProduceSameDataDifferentSizes) {
  std::string dir = TempDir("codec");
  StorageManager sm(dir);
  // Constant int64 payload: after delta coding the value stream is all
  // zero, so RLE and LZ should both crush it.
  int64_t sizes[3];
  int k = 0;
  for (CodecType c : {CodecType::kNone, CodecType::kRle, CodecType::kLz}) {
    std::string name = std::string("arr_") + CodecTypeName(c);
    ArraySchema s(name, {{"I", 1, 100, 10}, {"J", 1, 100, 10}},
                  {{"n", DataType::kInt64, true, false}});
    DiskArray* arr = sm.CreateArray(s, c).ValueOrDie();
    MemArray copy(s);
    for (int64_t i = 1; i <= 100; ++i) {
      for (int64_t j = 1; j <= 100; ++j) {
        ASSERT_TRUE(copy.SetCell({i, j}, Value(int64_t{7})).ok());
      }
    }
    ASSERT_TRUE(arr->WriteAll(copy).ok());
    sizes[k++] = arr->stats().bytes_written;
    EXPECT_EQ(arr->ReadAll().ValueOrDie().CellCount(), 10000);
  }
  EXPECT_LT(sizes[1], sizes[0] / 10);  // RLE crushes constant data
  EXPECT_LT(sizes[2], sizes[0] / 3);   // LZ helps too
  fs::remove_all(dir);
}

TEST(StorageManagerTest, MergeSmallBucketsCombines) {
  std::string dir = TempDir("merge");
  StorageManager sm(dir);
  ArraySchema s("m", {{"T", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  // 20 tiny adjacent buckets along T.
  MemArray mem(s);
  for (int64_t t = 1; t <= 200; ++t) {
    ASSERT_TRUE(mem.SetCell({t}, Value(static_cast<double>(t))).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  EXPECT_EQ(arr->bucket_count(), 20u);

  int merges = arr->MergeSmallBuckets(1 << 20).ValueOrDie();
  EXPECT_GT(merges, 0);
  EXPECT_LT(arr->bucket_count(), 20u);
  // Data unchanged after merging.
  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), 200);
  EXPECT_EQ((*back.GetCell({137}))[0].double_value(), 137.0);
  fs::remove_all(dir);
}

TEST(StorageManagerTest, StreamLoaderFlushesOnMemoryPressure) {
  std::string dir = TempDir("loader");
  StorageManager sm(dir);
  ArraySchema s("stream", {{"T", 1, kUnboundedDim, 100}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  StreamLoader loader(arr, /*memory_budget=*/8 * 1024);
  for (int64_t t = 1; t <= 5000; ++t) {
    ASSERT_TRUE(loader.Append({t}, {Value(static_cast<double>(t % 97))}).ok());
  }
  ASSERT_TRUE(loader.Finish().ok());
  EXPECT_GT(loader.flushes(), 1);  // memory pressure forced spills
  EXPECT_TRUE(loader.Append({1}, {Value(0.0)}).IsInvalid());  // finished

  MemArray back = arr->ReadAll().ValueOrDie();
  EXPECT_EQ(back.CellCount(), 5000);
  EXPECT_EQ((*back.GetCell({4999}))[0].double_value(),
            static_cast<double>(4999 % 97));
  fs::remove_all(dir);
}

TEST(StorageManagerTest, BackgroundMergerRuns) {
  std::string dir = TempDir("bgm");
  StorageManager sm(dir);
  ArraySchema s("bg", {{"T", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  MemArray mem(s);
  for (int64_t t = 1; t <= 100; ++t) {
    ASSERT_TRUE(mem.SetCell({t}, Value(1.0)).ok());
  }
  ASSERT_TRUE(arr->WriteAll(mem).ok());
  size_t before = arr->bucket_count();

  BackgroundMerger merger(arr, /*small_bytes=*/1 << 20,
                          std::chrono::milliseconds(5));
  merger.Start();
  // Wait for at least one pass.
  for (int i = 0; i < 200 && merger.total_merges() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  merger.Stop();
  EXPECT_GT(merger.total_merges(), 0);
  EXPECT_LT(arr->bucket_count(), before);
  int64_t count =
      merger.WithLock([](DiskArray* a) {
        return a->ReadAll().ValueOrDie().CellCount();
      });
  EXPECT_EQ(count, 100);
  fs::remove_all(dir);
}

// ------------------------------- chunk copies vs. a per-cell scatter

// The per-cell scatter DiskArray's reads ran before they copied whole
// chunks: every present cell of every bucket, in bucket order, through
// MemArray::SetCell (only those inside `clip`, when given). Kept here
// only as the oracle.
MemArray PerCellScatter(const ArraySchema& s,
                        const std::vector<const Chunk*>& buckets,
                        const Box* clip = nullptr) {
  MemArray out(s);
  for (const Chunk* b : buckets) {
    for (Chunk::CellIterator it(*b); it.valid(); it.Next()) {
      Coordinates c = it.coords();
      if (clip != nullptr && !clip->Contains(c)) continue;
      std::vector<Value> cell;
      for (size_t a = 0; a < b->nattrs(); ++a) {
        cell.push_back(b->block(a).Get(it.rank()));
      }
      EXPECT_TRUE(out.SetCell(c, cell).ok());
    }
  }
  return out;
}

// A value's exact identity: type and payload bits.
std::string Bits(const Value& v) {
  auto bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  std::ostringstream os;
  if (v.is_null()) {
    os << "null";
  } else if (v.is_double()) {
    os << "d" << bits(v.double_value());
  } else if (v.is_uncertain()) {
    os << "u" << bits(v.uncertain_value().mean) << "/"
       << bits(v.uncertain_value().stderr_);
  } else if (v.is_int64()) {
    os << "i" << v.int64_value();
  } else if (v.is_string()) {
    os << "s" << v.string_value();
  } else {
    os << "?" << v.ToString();
  }
  return os.str();
}

// Same chunk origins and boxes, presence, null flags, value bits and
// stderr layout (constant or per cell).
void ExpectSameCells(const MemArray& got, const MemArray& want) {
  ASSERT_EQ(got.ChunkCount(), want.ChunkCount());
  auto g = got.chunks().begin();
  for (const auto& [origin, wc] : want.chunks()) {
    SCOPED_TRACE("chunk " + CoordsToString(origin));
    ASSERT_EQ(g->first, origin);
    const Chunk& gc = *g->second;
    ASSERT_EQ(gc.box(), wc->box());
    ASSERT_EQ(gc.present_count(), wc->present_count());
    for (size_t a = 0; a < wc->nattrs(); ++a) {
      EXPECT_EQ(gc.block(a).has_constant_stderr(),
                wc->block(a).has_constant_stderr())
          << "attr " << a;
    }
    for (int64_t r = 0; r < wc->cell_capacity(); ++r) {
      ASSERT_EQ(gc.IsPresent(r), wc->IsPresent(r)) << "rank " << r;
      if (!wc->IsPresent(r)) continue;
      for (size_t a = 0; a < wc->nattrs(); ++a) {
        ASSERT_EQ(Bits(gc.block(a).Get(r)), Bits(wc->block(a).Get(r)))
            << "rank " << r << " attr " << a;
      }
    }
    ++g;
  }
}

// Every kind of column a chunk copy moves: double, string, nested
// array, and uncertain doubles with a constant and a varying error bar.
ArraySchema CopySchema(const std::string& name) {
  return ArraySchema(name, {{"x", 1, 20, 8}, {"y", 1, 20, 8}},
                     {{"v", DataType::kDouble, true, false},
                      {"s", DataType::kString, true, false},
                      {"arr", DataType::kArray, true, false},
                      {"uc", DataType::kDouble, true, true},
                      {"uv", DataType::kDouble, true, true}});
}

// A bucket over `box` whose cells are present where `keep` says, with
// values tagged by `tag` so a later writer's cells are told apart.
template <typename Keep>
Chunk Bucket(const ArraySchema& s, const Box& box, double tag, Keep keep) {
  Chunk c(box, s.attrs());
  Coordinates x = box.low;
  do {
    if (!keep(x)) continue;
    const double base = tag * 1000 + static_cast<double>(x[0] * 20 + x[1]);
    std::vector<Value> cell = {
        x[1] % 5 == 0 ? Value::Null() : Value(base + 0.25),
        Value(std::to_string(static_cast<int64_t>(base))),
        Value::Null(),
        Value(Uncertain(base, 0.5)),
        Value(Uncertain(-base, 0.01 * static_cast<double>(x[0] % 4)))};
    if (x[0] % 3 == 0) {
      auto na = std::make_shared<NestedArray>();
      na->shape = {2};
      na->values = {Value(base), Value(-base)};
      cell[2] = Value(std::move(na));
    }
    c.SetCell(x, cell);
  } while (NextInBox(box, &x));
  return c;
}

TEST(ChunkCopyTest, LaterBucketWinsAtEveryWidthAndInRegions) {
  std::string dir = TempDir("lastwriter");
  StorageManager sm(dir);
  const ArraySchema s = CopySchema("ow");
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  arr->EnableCache(1 << 20);
  auto all = [](const Coordinates&) { return true; };
  // A grid-aligned bucket (adopted whole), then two off-grid buckets
  // that overwrite parts of it and of each other, one of them sparse.
  const Chunk aligned = Bucket(s, Box({1, 1}, {8, 8}), 1, all);
  const Chunk off = Bucket(s, Box({3, 5}, {14, 12}), 2, all);
  const Chunk sparse = Bucket(s, Box({7, 1}, {20, 8}), 3,
                              [](const Coordinates& c) {
                                return (c[0] + c[1]) % 2 == 0;
                              });
  for (const Chunk* b : {&aligned, &off, &sparse}) {
    ASSERT_TRUE(arr->WriteBucket(*b).ok());
  }
  const MemArray want = PerCellScatter(s, {&aligned, &off, &sparse});

  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    SCOPED_TRACE(pool == nullptr ? 1 : pool->parallelism());
    MemArray got = arr->ReadAll(pool).ValueOrDie();
    ExpectSameCells(got, want);
    // The adopted chunk is a copy: writing through the result leaves
    // the cached bucket alone.
    ASSERT_TRUE(got.SetCell({1, 1}, {Value(-1.0), Value("x"), Value::Null(),
                                     Value(Uncertain(1, 9)),
                                     Value(Uncertain(1, 9))})
                    .ok());
  }
  ExpectSameCells(arr->ReadAll().ValueOrDie(), want);

  // Region reads clip the same upserts; this box sits half a chunk off
  // the grid, and the second one only touches absent cells of `sparse`
  // and so adds no chunk.
  for (const Box& q : {Box({5, 5}, {16, 16}), Box({15, 2}, {15, 2})}) {
    SCOPED_TRACE(q.ToString());
    ExpectSameCells(arr->ReadRegion(q).ValueOrDie(),
                    PerCellScatter(s, {&aligned, &off, &sparse}, &q));
  }
  EXPECT_EQ(arr->ReadRegion(Box({15, 2}, {15, 2})).ValueOrDie().ChunkCount(),
            0u);
  fs::remove_all(dir);
}

TEST(ChunkCopyTest, ManyOverlappingBucketsResolveInWriteOrder) {
  // More buckets than one R-tree node holds, all overlapping cell 5: the
  // tree splits, so its search order is not the write order, yet box
  // and cell reads must agree with ReadAll on the last writer.
  std::string dir = TempDir("manyoverlap");
  StorageManager sm(dir);
  ArraySchema s("many", {{"x", 1, 1000, 10}},
                {{"v", DataType::kDouble, true, false}});
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  std::vector<Chunk> written;
  for (int i = 0; i < 40; ++i) {
    const int64_t far = 20 * i + 100;
    Chunk c(Box({5}, {far}), s.attrs());
    c.SetCell({5}, {Value(static_cast<double>(i))});
    c.SetCell({far}, {Value(1.0)});
    ASSERT_TRUE(arr->WriteBucket(c).ok());
    written.push_back(std::move(c));
  }
  std::vector<const Chunk*> order;
  for (const Chunk& c : written) order.push_back(&c);
  const Box q({1}, {10});
  ExpectSameCells(arr->ReadRegion(q).ValueOrDie(),
                  PerCellScatter(s, order, &q));
  EXPECT_EQ((*arr->ReadRegion(q).ValueOrDie().GetCell({5}))[0].double_value(),
            39.0);
  EXPECT_EQ((*arr->ReadCell({5}).ValueOrDie())[0].double_value(), 39.0);
  ExpectSameCells(arr->ReadAll().ValueOrDie(), PerCellScatter(s, order));
  fs::remove_all(dir);
}

TEST(ChunkCopyTest, OffGridBucketAddsOnlyOccupiedSlots) {
  const ArraySchema s = CopySchema("slots");
  // Spans four grid slots but holds cells in one of them only.
  const Chunk b = Bucket(s, Box({5, 5}, {12, 12}), 1,
                         [](const Coordinates& c) {
                           return c[0] >= 9 && c[1] >= 9;
                         });
  MemArray got(s);
  ASSERT_TRUE(got.UpsertChunk(b).ok());
  ExpectSameCells(got, PerCellScatter(s, {&b}));
  EXPECT_EQ(got.ChunkCount(), 1u);
  // An all-absent chunk adds nothing.
  MemArray empty(s);
  ASSERT_TRUE(empty.UpsertChunk(Chunk(Box({1, 1}, {8, 8}), s.attrs())).ok());
  EXPECT_EQ(empty.ChunkCount(), 0u);
}

TEST(ChunkCopyTest, UpsertRejectsWhatSetCellRejects) {
  const ArraySchema s = CopySchema("bad");
  MemArray a(s);
  auto all = [](const Coordinates&) { return true; };
  // Reaches past the declared bounds (x <= 20).
  const Chunk outside = Bucket(s, Box({18, 1}, {22, 4}), 1, all);
  EXPECT_TRUE(a.UpsertChunk(outside).IsOutOfRange());
  EXPECT_EQ(a.ChunkCount(), 0u);
  // A box reaching past the bounds with only in-bound cells is fine.
  const Chunk inside = Bucket(s, Box({18, 1}, {22, 4}), 1,
                              [](const Coordinates& c) { return c[0] <= 20; });
  ASSERT_TRUE(a.UpsertChunk(inside).ok());
  ExpectSameCells(a, PerCellScatter(s, {&inside}));
  // Attribute types must match the schema's.
  ArraySchema other("other", s.dims(), {{"v", DataType::kInt64, true, false}});
  Chunk mismatched(Box({1, 1}, {8, 8}), other.attrs());
  mismatched.SetCell({1, 1}, {Value(int64_t{1})});
  EXPECT_TRUE(a.UpsertChunk(mismatched).IsInvalid());
}

TEST(ChunkCopyTest, MergedBucketsSpanningTwoSlotsReadBack) {
  std::string dir = TempDir("mergedslots");
  StorageManager sm(dir);
  const ArraySchema s = CopySchema("merged");
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  std::vector<Chunk> written;
  for (int64_t x0 : {1, 9, 17}) {
    for (int64_t y0 : {1, 9, 17}) {
      Box box({x0, y0}, {std::min<int64_t>(x0 + 7, 20),
                         std::min<int64_t>(y0 + 7, 20)});
      written.push_back(Bucket(s, box, 1, [&](const Coordinates& c) {
        return (c[0] * 7 + c[1]) % 3 != 0;
      }));
    }
  }
  std::vector<const Chunk*> order;
  for (const Chunk& b : written) {
    ASSERT_TRUE(arr->WriteBucket(b).ok());
    order.push_back(&b);
  }
  const MemArray want = PerCellScatter(s, order);
  ASSERT_GT(arr->MergeSmallBuckets(1 << 20).ValueOrDie(), 0);
  ASSERT_LT(arr->bucket_count(), written.size());
  ThreadPool pool8(8);
  ExpectSameCells(arr->ReadAll().ValueOrDie(), want);
  ExpectSameCells(arr->ReadAll(&pool8).ValueOrDie(), want);
  const Box q({4, 4}, {13, 13});
  ExpectSameCells(arr->ReadRegion(q).ValueOrDie(),
                  PerCellScatter(s, order, &q));
  fs::remove_all(dir);
}

TEST(ChunkCopyTest, ChunksSplitAcrossLoaderFlushesReadBack) {
  std::string dir = TempDir("loadersplit");
  StorageManager sm(dir);
  const ArraySchema s = CopySchema("split");
  DiskArray* arr = sm.CreateArray(s).ValueOrDie();
  // Row-major appends with a small budget: flushes cut grid chunks in
  // half, so several buckets share a slot.
  StreamLoader loader(arr, /*memory_budget=*/12 * 1024);
  const Chunk all = Bucket(s, Box({1, 1}, {20, 20}), 1,
                           [](const Coordinates& c) { return c[1] != 7; });
  for (Chunk::CellIterator it(all); it.valid(); it.Next()) {
    std::vector<Value> cell;
    for (size_t a = 0; a < all.nattrs(); ++a) {
      cell.push_back(all.block(a).Get(it.rank()));
    }
    ASSERT_TRUE(loader.Append(it.coords(), cell).ok());
  }
  ASSERT_TRUE(loader.Finish().ok());
  ASSERT_GT(loader.flushes(), 1);
  const MemArray want = PerCellScatter(s, {&all});
  ThreadPool pool2(2);
  ExpectSameCells(arr->ReadAll().ValueOrDie(), want);
  ExpectSameCells(arr->ReadAll(&pool2).ValueOrDie(), want);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace scidb

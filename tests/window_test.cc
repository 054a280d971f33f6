#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/operators.h"
#include "query/session.h"

namespace scidb {
namespace {

class WindowTest : public ::testing::Test {
 protected:
  WindowTest() {
    ctx_.functions = &fns_;
    ctx_.aggregates = &aggs_;
  }
  FunctionRegistry fns_;
  AggregateRegistry aggs_;
  ExecContext ctx_;
};

TEST_F(WindowTest, MovingAverage1D) {
  ArraySchema s("ts", {{"t", 1, 10, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(a.SetCell({t}, Value(static_cast<double>(t))).ok());
  }
  MemArray r = WindowAggregate(ctx_, a, {1}, "avg", "v").ValueOrDie();
  EXPECT_EQ(r.CellCount(), 10);
  // Interior: avg(t-1, t, t+1) = t.
  EXPECT_EQ((*r.GetCell({5}))[0].double_value(), 5.0);
  // Boundary clips: avg(1, 2) = 1.5.
  EXPECT_EQ((*r.GetCell({1}))[0].double_value(), 1.5);
  EXPECT_EQ((*r.GetCell({10}))[0].double_value(), 9.5);
}

TEST_F(WindowTest, TwoDimensionalSum) {
  ArraySchema s("img", {{"x", 1, 4, 4}, {"y", 1, 4, 4}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t x = 1; x <= 4; ++x) {
    for (int64_t y = 1; y <= 4; ++y) {
      ASSERT_TRUE(a.SetCell({x, y}, Value(1.0)).ok());
    }
  }
  MemArray r = WindowAggregate(ctx_, a, {1, 1}, "sum", "v").ValueOrDie();
  EXPECT_EQ((*r.GetCell({2, 2}))[0].double_value(), 9.0);  // full 3x3
  EXPECT_EQ((*r.GetCell({1, 1}))[0].double_value(), 4.0);  // corner 2x2
  EXPECT_EQ((*r.GetCell({1, 2}))[0].double_value(), 6.0);  // edge 2x3
}

TEST_F(WindowTest, SparseCellsOnlyAggregatePresent) {
  ArraySchema s("sp", {{"t", 1, 100, 10}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  ASSERT_TRUE(a.SetCell({10}, Value(1.0)).ok());
  ASSERT_TRUE(a.SetCell({12}, Value(3.0)).ok());
  ASSERT_TRUE(a.SetCell({50}, Value(7.0)).ok());
  MemArray r = WindowAggregate(ctx_, a, {2}, "sum", "v").ValueOrDie();
  // Output exists only at present cells; windows see present cells only.
  EXPECT_EQ(r.CellCount(), 3);
  EXPECT_EQ((*r.GetCell({10}))[0].double_value(), 4.0);  // 10 + 12
  EXPECT_EQ((*r.GetCell({50}))[0].double_value(), 7.0);  // alone
}

TEST_F(WindowTest, ZeroRadiusIsIdentityAggregate) {
  ArraySchema s("ts", {{"t", 1, 5, 5}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(a.SetCell({t}, Value(t * 2.0)).ok());
  }
  MemArray r = WindowAggregate(ctx_, a, {0}, "max", "v").ValueOrDie();
  EXPECT_EQ((*r.GetCell({3}))[0].double_value(), 6.0);
}

TEST_F(WindowTest, Validation) {
  ArraySchema s("ts", {{"t", 1, 5, 5}},
                {{"v", DataType::kDouble, true, false}});
  MemArray a(s);
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1, 1}, "avg", "v").status().IsInvalid());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {-1}, "avg", "v").status().IsInvalid());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1}, "nope", "v").status().IsNotFound());
  EXPECT_TRUE(
      WindowAggregate(ctx_, a, {1}, "avg", "zz").status().IsNotFound());
}

TEST_F(WindowTest, AvailableThroughAqlAndBinding) {
  Session session;
  ASSERT_TRUE(session.Execute("define T (v = double) (t)").ok());
  ASSERT_TRUE(session.Execute("create S as T [6]").ok());
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(session
                    .Execute("insert S [" + std::to_string(t) +
                             "] values (" + std::to_string(t) + ".0)")
                    .ok());
  }
  auto text =
      session.Execute("select Window(S, [1], avg(v))").ValueOrDie();
  EXPECT_EQ((*text.array->GetCell({3}))[0].double_value(), 3.0);

  using namespace binding;
  MemArray bound =
      session.Eval(Window(Array("S"), {1}, "avg", "v")).ValueOrDie();
  EXPECT_EQ((*bound.GetCell({3}))[0].double_value(), 3.0);
}

// ---------------------------------------------------------------------------
// Differential: WindowAggregate against the per-probe walk it replaced.

// The algorithm WindowAggregate ran before it gathered halos: every probe
// of every window is one MemArray::GetCell, serially in chunk-map order.
// Kept here only as the oracle.
Result<MemArray> ReferenceWindow(const AggregateRegistry& aggs,
                                 const MemArray& a,
                                 const std::vector<int64_t>& radii,
                                 const std::string& agg,
                                 const std::string& attr) {
  const ArraySchema& schema = a.schema();
  ASSIGN_OR_RETURN(const AggregateFunction* afn, aggs.Find(agg));
  size_t attr_idx = 0;
  if (attr != "*") {
    ASSIGN_OR_RETURN(attr_idx, schema.AttrIndex(attr));
  }
  MemArray out(ArraySchema(schema.name() + "_window", schema.dims(),
                           {AggOutputAttr(agg)}));
  for (const auto& [origin, chunk] : a.chunks()) {
    auto oc = std::make_shared<Chunk>(chunk->box(), out.schema().attrs());
    for (Chunk::CellIterator it(*chunk); it.valid(); it.Next()) {
      Coordinates c = it.coords();
      Box window;
      window.low.resize(c.size());
      window.high.resize(c.size());
      for (size_t d = 0; d < c.size(); ++d) {
        window.low[d] = std::max(c[d] - radii[d], schema.dim(d).low);
        window.high[d] = c[d] + radii[d];
        if (!schema.dim(d).unbounded()) {
          window.high[d] = std::min(window.high[d], schema.dim(d).high);
        }
      }
      auto state = afn->NewState();
      Coordinates probe = window.low;
      do {
        auto cell = a.GetCell(probe);
        if (cell.has_value()) {
          RETURN_NOT_OK(state->Accumulate((*cell)[attr_idx]));
        }
      } while (NextInBox(window, &probe));
      oc->block(0).Set(it.rank(), state->Finalize());
      oc->MarkPresent(it.rank());
    }
    if (oc->present_count() > 0) (*out.mutable_chunks())[origin] = oc;
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
  } else {
    os << "?" << v.ToString();
  }
  return os.str();
}

// Same chunk origins and boxes, presence, null flags and value bits.
void ExpectIdentical(const MemArray& got, const MemArray& want) {
  ASSERT_EQ(got.schema().attrs(), want.schema().attrs());
  ASSERT_EQ(got.ChunkCount(), want.ChunkCount());
  auto g = got.chunks().begin();
  for (const auto& [origin, wc] : want.chunks()) {
    ASSERT_EQ(g->first, origin);
    const Chunk& gc = *g->second;
    ASSERT_EQ(gc.box(), wc->box());
    ASSERT_EQ(gc.present_count(), wc->present_count());
    for (int64_t r = 0; r < wc->cell_capacity(); ++r) {
      ASSERT_EQ(gc.IsPresent(r), wc->IsPresent(r)) << "rank " << r;
      if (!wc->IsPresent(r)) continue;
      ASSERT_EQ(gc.block(0).IsNull(r), wc->block(0).IsNull(r));
      ASSERT_EQ(Bits(gc.block(0).Get(r)), Bits(wc->block(0).Get(r)))
          << "origin " << CoordsToString(origin) << " rank " << r;
    }
    ++g;
  }
}

// Fails on the first value above 40, naming it: the first error of a
// window run pins down which probe failed first.
class FailingState : public AggregateState {
 public:
  Status Accumulate(const Value& v) override {
    if (!v.is_null() && v.AsDouble().value() > 40.0) {
      return Status::Invalid("window saw " + v.ToString());
    }
    return Status::OK();
  }
  Status Merge(const AggregateState&) override { return Status::OK(); }
  Value Finalize() const override { return Value(1.0); }
};

// A seeded array over `cells` with attributes v (double, ~10% null),
// n (int64) and u (uncertain double, a few distinct error bars). Cells
// are dropped at `hole_rate`; with `absent_chunks`, every third chunk
// column along the first dimension is left out whole.
MemArray MakeWindowInput(std::vector<DimensionDesc> dims, const Box& cells,
                         uint64_t seed, double hole_rate,
                         bool absent_chunks) {
  ArraySchema s("w", std::move(dims),
                {{"v", DataType::kDouble, true, false},
                 {"n", DataType::kInt64, true, false},
                 {"u", DataType::kDouble, true, true}});
  MemArray a(s);
  Rng rng(TestSeed(seed));
  Coordinates c = cells.low;
  do {
    const int64_t col = (c[0] - s.dim(0).low) / s.dim(0).chunk_interval;
    if (absent_chunks && col % 3 == 1) continue;
    if (rng.NextDouble() < hole_rate) continue;
    Value v = rng.NextDouble() < 0.1 ? Value::Null()
                                     : Value(rng.NextDouble() * 100 - 50);
    Value n(rng.UniformInt(-1000, 1000));
    Value u(Uncertain(rng.NextDouble() * 10,
                      0.1 + 0.05 * static_cast<double>(rng.UniformInt(0, 3))));
    EXPECT_TRUE(a.SetCell(c, {v, n, u}).ok());
  } while (NextInBox(cells, &c));
  return a;
}

struct WindowCase {
  std::string label;
  MemArray array;
  std::vector<std::vector<int64_t>> radii;
};

TEST_F(WindowTest, BitIdenticalToPerProbeWalk) {
  std::vector<WindowCase> cases;
  cases.push_back({"1d interval 32",
                   MakeWindowInput({{"t", 1, 70, 32}}, Box({1}, {70}), 1,
                                   0.2, false),
                   {{0}, {1}, {2}, {16}, {500}}});
  cases.push_back({"1d interval 1",
                   MakeWindowInput({{"t", 1, 40, 1}}, Box({1}, {40}), 2, 0.2,
                                   false),
                   {{0}, {1}, {2}, {16}, {500}}});
  cases.push_back({"1d sparse, absent chunks",
                   MakeWindowInput({{"t", 1, 200, 10}}, Box({1}, {200}), 3,
                                   0.6, true),
                   {{0}, {1}, {2}, {16}, {500}}});
  cases.push_back({"2d interval 32, absent chunk",
                   MakeWindowInput({{"x", 1, 36, 32}, {"y", 1, 34, 32}},
                                   Box({1, 1}, {36, 34}), 4, 0.3, true),
                   {{0, 0}, {1, 1}, {2, 1}, {16, 16}, {100, 100}}});
  cases.push_back({"2d interval 1",
                   MakeWindowInput({{"x", 1, 12, 1}, {"y", 1, 10, 1}},
                                   Box({1, 1}, {12, 10}), 5, 0.3, false),
                   {{0, 0}, {1, 2}, {2, 2}, {16, 16}, {100, 100}}});
  cases.push_back({"3d mixed intervals",
                   MakeWindowInput(
                       {{"x", 1, 9, 4}, {"y", 1, 8, 32}, {"z", 1, 7, 1}},
                       Box({1, 1, 1}, {9, 8, 7}), 6, 0.3, false),
                   {{0, 0, 0}, {1, 1, 1}, {2, 0, 1}, {16, 16, 16},
                    {50, 50, 50}}});
  cases.push_back({"2d unbounded first dim",
                   MakeWindowInput({{"t", 1, kUnboundedDim, 8},
                                    {"y", 1, 6, 32}},
                                   Box({1, 1}, {60, 6}), 7, 0.3, true),
                   {{0, 0}, {1, 1}, {2, 2}, {16, 2}, {100, 1}}});

  // A chunk whose box reaches past its grid slot: GetCell never finds
  // the cells outside the slot, so no window may count them either.
  MemArray wide = MakeWindowInput({{"x", 1, 24, 8}, {"y", 1, 24, 8}},
                                  Box({1, 1}, {24, 24}), 9, 0.2, false);
  {
    auto c = std::make_shared<Chunk>(Box({9, 9}, {20, 20}),
                                     wide.schema().attrs());
    Coordinates x = c->box().low;
    do {
      c->SetCell(x, {Value(static_cast<double>(x[0] * x[1])),
                     Value(x[0]), Value(Uncertain(1.0, 0.5))});
    } while (NextInBox(c->box(), &x));
    (*wide.mutable_chunks())[{9, 9}] = c;
  }
  cases.push_back({"2d chunk wider than its slot", std::move(wide),
                   {{0, 0}, {1, 1}, {2, 2}, {16, 16}}});

  // Every builtin; the large radii run a subset to bound the oracle's
  // O(cells x window) GetCell walk.
  const std::vector<std::pair<std::string, std::string>> all_aggs = {
      {"sum", "v"},    {"count", "v"}, {"count", "*"},  {"avg", "v"},
      {"min", "v"},    {"max", "v"},   {"stddev", "v"}, {"min", "n"},
      {"max", "n"},    {"sum", "n"},   {"stddev", "u"}, {"usum", "u"},
      {"uavg", "u"}};
  const std::vector<std::pair<std::string, std::string>> big_radius_aggs = {
      {"sum", "v"}, {"max", "n"}, {"uavg", "u"}};

  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const WindowCase& wc : cases) {
    for (const std::vector<int64_t>& radii : wc.radii) {
      const bool big = radii[0] >= 16;
      for (const auto& [agg, attr] : big ? big_radius_aggs : all_aggs) {
        SCOPED_TRACE(wc.label + " radius " + CoordsToString(radii) + " " +
                     agg + "(" + attr + ")");
        MemArray want =
            ReferenceWindow(aggs_, wc.array, radii, agg, attr).ValueOrDie();
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                                 &pool8}) {
          ExecContext ctx = ctx_;
          ctx.pool = pool;
          Result<MemArray> got =
              WindowAggregate(ctx, wc.array, radii, agg, attr);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectIdentical(got.value(), want);
        }
      }
    }
  }
}

TEST_F(WindowTest, FailingAggregateGivesTheSameFirstError) {
  ASSERT_TRUE(aggs_.Register(AggregateFunction("failing", [] {
                     return std::make_unique<FailingState>();
                   })).ok());
  MemArray a = MakeWindowInput({{"x", 1, 36, 8}, {"y", 1, 30, 8}},
                               Box({1, 1}, {36, 30}), 8, 0.2, true);
  Status want =
      ReferenceWindow(aggs_, a, {1, 2}, "failing", "v").status();
  ASSERT_TRUE(want.IsInvalid()) << want.ToString();
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    ExecContext ctx = ctx_;
    ctx.pool = pool;
    Status got = WindowAggregate(ctx, a, {1, 2}, "failing", "v").status();
    EXPECT_EQ(got.ToString(), want.ToString());
  }
}

}  // namespace
}  // namespace scidb

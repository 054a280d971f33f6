#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/macros.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

// ---------------------------------------------------------------- Filter

Result<MemArray> Filter(const ExecContext& ctx, const MemArray& a,
                        const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Filter: null predicate");
  const ArraySchema& schema = a.schema();
  MemArray out(schema);
  out.mutable_schema()->set_name(schema.name() + "_filter");

  const std::vector<Value> nulls(schema.nattrs());
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        // Expression bindings are by pointer, so each morsel owns its
        // coordinate/attribute buffers.
        EvalContext ectx;
        ectx.functions = ctx.functions;
        Coordinates coords;
        std::vector<Value> attrs;
        ectx.sides.push_back({&schema, &coords, &attrs});

        auto oc = std::make_shared<Chunk>(chunk.box(), schema.attrs());
        for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
          ++stats->cells_visited;
          coords = it.coords();
          attrs.clear();
          for (size_t at = 0; at < chunk.nattrs(); ++at) {
            attrs.push_back(chunk.block(at).Get(it.rank()));
          }
          ASSIGN_OR_RETURN(Value verdict, pred->Eval(ectx));
          bool keep = verdict.is_bool() && verdict.bool_value();
          // Paper: cells failing P "will contain NULL" — present,
          // null-valued.
          const std::vector<Value>& row = keep ? attrs : nulls;
          for (size_t at = 0; at < row.size(); ++at) {
            oc->block(at).Set(it.rank(), row[at]);
          }
          oc->MarkPresent(it.rank());
        }
        return oc;
      }));
  return out;
}

// ------------------------------------------------------------- Aggregate

AttributeDesc AggOutputAttr(const std::string& agg) {
  if (agg == "count") return {agg, DataType::kInt64, true, false};
  if (agg == "usum" || agg == "uavg") {
    return {agg, DataType::kDouble, true, true};
  }
  return {agg, DataType::kDouble, true, false};
}

namespace {

// One aggregate call of a grouped aggregation: the function and the index
// of the input attribute it reads.
struct AggInput {
  const AggregateFunction* fn;
  size_t attr;
};

// Maps a cell's coordinates to the coordinates of its group (its output
// cell).
using GroupKeyFn = std::function<void(const Coordinates& c, Coordinates* key)>;

using GroupStates = std::vector<std::unique_ptr<AggregateState>>;
using GroupMap = std::map<Coordinates, GroupStates>;

GroupStates NewStates(const std::vector<AggInput>& inputs) {
  GroupStates states;
  states.reserve(inputs.size());
  for (const AggInput& in : inputs) states.push_back(in.fn->NewState());
  return states;
}

// The one grouped-aggregation algorithm (DESIGN.md §8), behind Aggregate,
// AggregateMulti, Regrid and the grid's ParallelAggregate. Every chunk
// accumulates its own partial group map; the partials then merge on one
// thread in chunk-map order (the first chunk's state seeds each group,
// later ones Merge() in) and each group finalizes into one output cell.
// This runs the same way at EVERY pool width — the partial+merge shape is
// the algorithm, not a parallel special case — so results are
// bit-identical at parallelism 1/2/8. `grand` still emits cell {1} for an
// empty input (SQL semantics: SUM of nothing is NULL, COUNT of nothing
// is 0).
Result<MemArray> GroupedAggregate(const ExecContext& ctx, const MemArray& a,
                                  const GroupKeyFn& key_of,
                                  const std::vector<AggInput>& inputs,
                                  bool grand, ArraySchema out_schema) {
  std::vector<GroupMap> partials(a.chunks().size());
  RETURN_NOT_OK(ForEachChunkParallel(
      ctx, a,
      [&](size_t index, const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Status {
        GroupMap& local = partials[index];
        const Box& box = chunk.box();
        Coordinates c = box.low;
        Coordinates key;
        for (int64_t rank = 0; rank < chunk.cell_capacity(); ++rank) {
          // rank < capacity: the odometer cannot have wrapped.
          if (rank > 0) (void)NextInBox(box, &c);
          if (!chunk.IsPresent(rank)) continue;
          ++stats->cells_visited;
          key_of(c, &key);
          auto git = local.find(key);
          if (git == local.end()) {
            git = local.emplace(key, NewStates(inputs)).first;
          }
          for (size_t k = 0; k < inputs.size(); ++k) {
            RETURN_NOT_OK(git->second[k]->Accumulate(
                chunk.block(inputs[k].attr).Get(rank)));
          }
        }
        return Status::OK();
      }));

  GroupMap groups;
  for (GroupMap& part : partials) {
    for (auto& [key, states] : part) {
      auto it = groups.find(key);
      if (it == groups.end()) {
        groups.emplace(key, std::move(states));
        continue;
      }
      for (size_t k = 0; k < inputs.size(); ++k) {
        RETURN_NOT_OK(it->second[k]->Merge(*states[k]));
      }
    }
  }

  if (grand && groups.empty()) {
    groups.emplace(Coordinates{1}, NewStates(inputs));
  }
  MemArray out(std::move(out_schema));
  std::vector<Value> row;
  for (const auto& [key, states] : groups) {
    row.clear();
    for (const auto& state : states) row.push_back(state->Finalize());
    RETURN_NOT_OK(out.SetCell(key, row));
  }
  return out;
}

}  // namespace

Result<MemArray> Aggregate(const ExecContext& ctx, const MemArray& a,
                           const std::vector<std::string>& group_dims,
                           const std::string& agg, const std::string& attr) {
  // A one-call AggregateMulti; only the output attribute's name differs
  // ("<agg>" rather than "<agg>_<attr>").
  ASSIGN_OR_RETURN(MemArray multi,
                   AggregateMulti(ctx, a, group_dims, {{agg, attr}}));
  const ArraySchema& ms = multi.schema();
  MemArray out(ArraySchema(ms.name(), ms.dims(), {AggOutputAttr(agg)}));
  *out.mutable_chunks() = std::move(*multi.mutable_chunks());
  return out;
}

Result<MemArray> AggregateMulti(const ExecContext& ctx, const MemArray& a,
                                const std::vector<std::string>& group_dims,
                                const std::vector<AggCall>& calls) {
  if (ctx.aggregates == nullptr) {
    return Status::Internal("Aggregate: no aggregate registry bound");
  }
  if (calls.empty()) {
    return Status::Invalid("AggregateMulti: need at least one aggregate");
  }
  const ArraySchema& schema = a.schema();

  std::vector<AggInput> inputs;
  std::vector<AttributeDesc> out_attrs;
  std::set<std::string> used_names;
  for (const AggCall& call : calls) {
    ASSIGN_OR_RETURN(const AggregateFunction* fn,
                     ctx.aggregates->Find(call.agg));
    size_t ai = 0;
    if (call.attr != "*") {
      ASSIGN_OR_RETURN(ai, schema.AttrIndex(call.attr));
    }
    inputs.push_back({fn, ai});
    AttributeDesc desc = AggOutputAttr(call.agg);
    if (call.attr != "*") desc.name = call.agg + "_" + call.attr;
    while (!used_names.insert(desc.name).second) desc.name += "_2";
    out_attrs.push_back(std::move(desc));
  }

  std::vector<size_t> gidx;
  std::vector<DimensionDesc> out_dims;
  std::set<size_t> seen;
  for (const auto& g : group_dims) {
    ASSIGN_OR_RETURN(size_t di, schema.DimIndex(g));
    if (!seen.insert(di).second) {
      return Status::Invalid("Aggregate: duplicate grouping dimension '" +
                             g + "'");
    }
    gidx.push_back(di);
    out_dims.push_back(schema.dim(di));
  }
  // Grand aggregate: single-cell output with one synthetic dimension.
  const bool grand = gidx.empty();
  if (grand) out_dims.push_back({"all", 1, 1, 1});

  return GroupedAggregate(
      ctx, a,
      [&gidx, grand](const Coordinates& c, Coordinates* key) {
        key->clear();
        if (grand) key->push_back(1);
        for (size_t d : gidx) key->push_back(c[d]);
      },
      inputs, grand,
      ArraySchema(schema.name() + "_agg", std::move(out_dims),
                  std::move(out_attrs)));
}

// ----------------------------------------------------------------- Cjoin

Result<MemArray> Cjoin(const ExecContext& ctx, const MemArray& a,
                       const MemArray& b, const ExprPtr& pred) {
  if (pred == nullptr) return Status::Invalid("Cjoin: null predicate");
  const ArraySchema& sa = a.schema();
  const ArraySchema& sb = b.schema();

  std::vector<DimensionDesc> dims = sa.dims();
  for (DimensionDesc d : sb.dims()) {
    while (sa.DimIndex(d.name).ok()) d.name += "_2";
    dims.push_back(std::move(d));
  }
  ArraySchema out_schema(sa.name() + "_cjoin", std::move(dims),
                         MergeAttrs(sa.attrs(), sb.attrs()));
  MemArray out(out_schema);

  EvalContext ectx;
  ectx.functions = ctx.functions;
  Coordinates ca_bound, cb_bound;
  std::vector<Value> va, vb;
  ectx.sides.push_back({&sa, &ca_bound, &va});
  ectx.sides.push_back({&sb, &cb_bound, &vb});

  std::vector<Value> nulls(out_schema.nattrs());
  Status st;
  bool failed = false;
  a.ForEachCell([&](const Coordinates& ca, const Chunk& ach, int64_t ar) {
    va.clear();
    for (size_t at = 0; at < ach.nattrs(); ++at) {
      va.push_back(ach.block(at).Get(ar));
    }
    ca_bound = ca;
    b.ForEachCell([&](const Coordinates& cb, const Chunk& bch, int64_t br) {
      if (ctx.stats != nullptr) ++ctx.stats->cells_visited;
      vb.clear();
      for (size_t at = 0; at < bch.nattrs(); ++at) {
        vb.push_back(bch.block(at).Get(br));
      }
      cb_bound = cb;
      auto ok = pred->Eval(ectx);
      if (!ok.ok()) {
        st = ok.status();
        failed = true;
        return false;
      }
      bool match = ok.value().is_bool() && ok.value().bool_value();
      Coordinates oc = ca;
      oc.insert(oc.end(), cb.begin(), cb.end());
      if (match) {
        std::vector<Value> cell = va;
        cell.insert(cell.end(), vb.begin(), vb.end());
        st = out.SetCell(oc, cell);
      } else {
        // Figure 3: non-matching positions hold NULL.
        st = out.SetCell(oc, nulls);
      }
      if (!st.ok()) {
        failed = true;
        return false;
      }
      return true;
    });
    return !failed;
  });
  if (failed) return st;
  return out;
}

// ----------------------------------------------------------------- Apply

Result<MemArray> Apply(const ExecContext& ctx, const MemArray& a,
                       const std::string& name, DataType type,
                       const ExprPtr& e, bool uncertain) {
  if (e == nullptr) return Status::Invalid("Apply: null expression");
  const ArraySchema& schema = a.schema();
  if (schema.DimIndex(name).ok() || schema.AttrIndex(name).ok()) {
    return Status::Invalid("Apply: name '" + name + "' already in use");
  }
  std::vector<AttributeDesc> attrs = schema.attrs();
  attrs.push_back({name, type, true, uncertain});
  ArraySchema out_schema(schema.name() + "_apply", schema.dims(),
                         std::move(attrs));
  MemArray out(out_schema);

  const std::vector<AttributeDesc>& out_attrs = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        EvalContext ectx;
        ectx.functions = ctx.functions;
        Coordinates coords;
        std::vector<Value> vals;
        ectx.sides.push_back({&schema, &coords, &vals});

        auto oc = std::make_shared<Chunk>(chunk.box(), out_attrs);
        const size_t new_at = chunk.nattrs();
        for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
          ++stats->cells_visited;
          coords = it.coords();
          vals.clear();
          for (size_t at = 0; at < chunk.nattrs(); ++at) {
            vals.push_back(chunk.block(at).Get(it.rank()));
          }
          ASSIGN_OR_RETURN(Value v, e->Eval(ectx));
          for (size_t at = 0; at < vals.size(); ++at) {
            oc->block(at).Set(it.rank(), vals[at]);
          }
          oc->block(new_at).Set(it.rank(), v);
          oc->MarkPresent(it.rank());
        }
        return oc;
      }));
  return out;
}

// --------------------------------------------------------------- Project

Result<MemArray> Project(const ExecContext& ctx, const MemArray& a,
                         const std::vector<std::string>& attrs) {
  if (attrs.empty()) {
    return Status::Invalid("Project: need at least one attribute");
  }
  const ArraySchema& schema = a.schema();
  std::vector<size_t> idx;
  std::vector<AttributeDesc> out_attrs;
  for (const auto& name : attrs) {
    ASSIGN_OR_RETURN(size_t ai, schema.AttrIndex(name));
    idx.push_back(ai);
    out_attrs.push_back(schema.attr(ai));
  }
  ArraySchema out_schema(schema.name() + "_project", schema.dims(),
                         std::move(out_attrs));
  MemArray out(out_schema);

  const std::vector<AttributeDesc>& kept = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats*) -> Result<std::shared_ptr<Chunk>> {
        auto oc = std::make_shared<Chunk>(chunk.box(), kept);
        for (Chunk::CellIterator it(chunk); it.valid(); it.Next()) {
          for (size_t k = 0; k < idx.size(); ++k) {
            oc->block(k).Set(it.rank(), chunk.block(idx[k]).Get(it.rank()));
          }
          oc->MarkPresent(it.rank());
        }
        return oc;
      }));
  return out;
}

// ---------------------------------------------------------------- Regrid

Result<MemArray> Regrid(const ExecContext& ctx, const MemArray& a,
                        const std::vector<int64_t>& factors,
                        const std::string& agg, const std::string& attr) {
  if (ctx.aggregates == nullptr) {
    return Status::Internal("Regrid: no aggregate registry bound");
  }
  const ArraySchema& schema = a.schema();
  if (factors.size() != schema.ndims()) {
    return Status::Invalid("Regrid: need one factor per dimension");
  }
  for (int64_t f : factors) {
    if (f <= 0) return Status::Invalid("Regrid: factors must be positive");
  }
  ASSIGN_OR_RETURN(const AggregateFunction* afn, ctx.aggregates->Find(agg));
  size_t attr_idx = 0;
  if (attr != "*") {
    ASSIGN_OR_RETURN(attr_idx, schema.AttrIndex(attr));
  }

  std::vector<DimensionDesc> out_dims;
  for (size_t d = 0; d < schema.ndims(); ++d) {
    DimensionDesc dd = schema.dim(d);
    if (!dd.unbounded()) {
      dd.high = dd.low + (dd.extent() + factors[d] - 1) / factors[d] - 1;
    }
    out_dims.push_back(dd);
  }

  // A block key is each coordinate's block index, anchored at the
  // dimension's low bound; blocks may span chunks, and the core's merge
  // joins their per-chunk partials.
  const std::vector<DimensionDesc>& dims = schema.dims();
  return GroupedAggregate(
      ctx, a,
      [&dims, &factors](const Coordinates& c, Coordinates* key) {
        key->resize(c.size());
        for (size_t d = 0; d < c.size(); ++d) {
          (*key)[d] = dims[d].low + (c[d] - dims[d].low) / factors[d];
        }
      },
      {{afn, attr_idx}}, /*grand=*/false,
      ArraySchema(schema.name() + "_regrid", std::move(out_dims),
                  {AggOutputAttr(agg)}));
}

}  // namespace scidb

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace scidb {

namespace {

// c - r and c + r, saturated: radii are user input.
int64_t SatSub(int64_t c, int64_t r) {
  int64_t out = 0;
  return __builtin_sub_overflow(c, r, &out)
             ? std::numeric_limits<int64_t>::min()
             : out;
}
int64_t SatAdd(int64_t c, int64_t r) {
  int64_t out = 0;
  return __builtin_add_overflow(c, r, &out)
             ? std::numeric_limits<int64_t>::max()
             : out;
}

// Copies into `halo` exactly the cells of `a` inside its box that
// MemArray::GetCell would return: for each grid slot, the present cells
// of the chunk keyed at the slot's origin that lie inside that slot.
void GatherHalo(const MemArray& a, const std::vector<size_t>& src_attrs,
                Chunk* halo) {
  const Box& hb = halo->box();
  a.ForEachSlot(hb, [&](const Coordinates& slot) {
    const Chunk* src = a.FindChunk(slot);
    if (src == nullptr) return;
    Box part = a.ChunkBoxFor(slot);
    for (const Box* b : {&hb, &src->box()}) {
      if (!part.Intersects(*b)) return;
      part = part.Intersect(*b);
    }
    halo->CopyPresentFrom(*src, part, src_attrs);
  });
}

}  // namespace

Result<MemArray> WindowAggregate(const ExecContext& ctx, const MemArray& a,
                                 const std::vector<int64_t>& radii,
                                 const std::string& agg,
                                 const std::string& attr) {
  if (ctx.aggregates == nullptr) {
    return Status::Internal("WindowAggregate: no aggregate registry bound");
  }
  const ArraySchema& schema = a.schema();
  if (radii.size() != schema.ndims() || radii.empty()) {
    return Status::Invalid("WindowAggregate: need one radius per dimension");
  }
  for (int64_t r : radii) {
    if (r < 0) return Status::Invalid("WindowAggregate: negative radius");
  }
  ASSIGN_OR_RETURN(const AggregateFunction* afn, ctx.aggregates->Find(agg));
  size_t attr_idx = 0;
  if (attr != "*") {
    ASSIGN_OR_RETURN(attr_idx, schema.AttrIndex(attr));
  }

  ArraySchema out_schema(schema.name() + "_window", schema.dims(),
                         {AggOutputAttr(agg)});
  MemArray out(out_schema);
  if (a.ChunkCount() == 0) return out;

  // No probe outside the chunks' bounding box can find a cell, so halos
  // are clipped to it: a halo never outgrows the array, whatever the
  // radius.
  Box extent = a.chunks().begin()->second->box();
  for (const auto& [origin, chunk] : a.chunks()) {
    extent.ExpandToInclude(chunk->box());
  }
  const size_t nd = schema.ndims();
  const std::vector<AttributeDesc> halo_attrs = {schema.attr(attr_idx)};
  const std::vector<size_t> halo_src = {attr_idx};

  // Each output chunk first gathers its halo — the chunk box widened by
  // the radii, clipped to the declared bounds — into one dense chunk of
  // the aggregated attribute (Chunk::CopyPresentFrom from the <= 3^d grid
  // slots it overlaps, for radii up to the chunk interval). Every window
  // then reads the halo by rank arithmetic, probing in the same row-major
  // order with the same AggregateState calls as a per-probe
  // MemArray::GetCell walk, so results are bit-identical to it. The cost
  // is still O(cells x window); sliding or separable windows would
  // re-associate floating-point sums and change the bits.
  //
  // Parallel-safe because each morsel only reads `a` (halos cross chunk
  // boundaries, but reads of a const array share nothing mutable) and
  // writes its own halo and output chunk.
  const std::vector<AttributeDesc>& out_attrs = out.schema().attrs();
  RETURN_NOT_OK(ParallelChunkMap(
      ctx, a, &out,
      [&](const Coordinates&, const Chunk& chunk,
          ExecStats* stats) -> Result<std::shared_ptr<Chunk>> {
        const Box& box = chunk.box();
        Box hb = box;
        bool halo_empty = false;
        for (size_t d = 0; d < nd; ++d) {
          const DimensionDesc& dim = schema.dim(d);
          hb.low[d] = std::max({SatSub(box.low[d], radii[d]), dim.low,
                                extent.low[d]});
          hb.high[d] = std::min(SatAdd(box.high[d], radii[d]),
                                extent.high[d]);
          if (!dim.unbounded()) hb.high[d] = std::min(hb.high[d], dim.high);
          if (hb.low[d] > hb.high[d]) halo_empty = true;
        }
        Chunk halo;
        if (!halo_empty) {
          halo = Chunk(hb, halo_attrs);
          GatherHalo(a, halo_src, &halo);
        }
        const AttributeBlock* values = halo_empty ? nullptr : &halo.block(0);

        auto oc = std::make_shared<Chunk>(box, out_attrs);
        Coordinates c = box.low;
        // The window of `c` inside the halo, and the first cell of its
        // current row; both reuse their storage from cell to cell.
        Box win = hb;
        Coordinates row = hb.low;
        const int64_t cap = chunk.cell_capacity();
        for (int64_t rank = 0; rank < cap; ++rank) {
          if (rank > 0) (void)NextInBox(box, &c);
          if (!chunk.IsPresent(rank)) continue;
          ++stats->cells_visited;
          auto state = afn->NewState();
          bool empty = halo_empty;
          for (size_t d = 0; d < nd && !empty; ++d) {
            win.low[d] = std::max(SatSub(c[d], radii[d]), hb.low[d]);
            win.high[d] = std::min(SatAdd(c[d], radii[d]), hb.high[d]);
            empty = win.low[d] > win.high[d];
          }
          if (!empty) {
            const int64_t run = win.high[nd - 1] - win.low[nd - 1] + 1;
            row = win.low;
            do {
              const int64_t base = RankInBox(hb, row);
              for (int64_t k = base; k < base + run; ++k) {
                if (halo.IsPresent(k)) {
                  RETURN_NOT_OK(state->Accumulate(values->Get(k)));
                }
              }
            } while (NextRowInBox(win, &row));
          }
          oc->block(0).Set(rank, state->Finalize());
          oc->MarkPresent(rank);
        }
        return oc;
      }));
  return out;
}

}  // namespace scidb

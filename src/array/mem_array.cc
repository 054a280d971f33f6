#include "array/mem_array.h"

#include <algorithm>

namespace scidb {

Coordinates MemArray::ChunkOriginFor(const Coordinates& c) const {
  Coordinates origin(c.size());
  for (size_t d = 0; d < c.size(); ++d) {
    const DimensionDesc& dim = schema_.dim(d);
    int64_t off = c[d] - dim.low;
    // Floor-divide also for negative offsets (cells below dim.low are
    // rejected by SetCell, but enhancement-mapped reads may probe there).
    int64_t q = off >= 0 ? off / dim.chunk_interval
                         : -((-off + dim.chunk_interval - 1) /
                             dim.chunk_interval);
    origin[d] = dim.low + q * dim.chunk_interval;
  }
  return origin;
}

Box MemArray::ChunkBoxFor(const Coordinates& origin) const {
  Box b;
  b.low = origin;
  b.high.resize(origin.size());
  for (size_t d = 0; d < origin.size(); ++d) {
    const DimensionDesc& dim = schema_.dim(d);
    int64_t hi = origin[d] + dim.chunk_interval - 1;
    if (!dim.unbounded()) hi = std::min(hi, dim.high);
    b.high[d] = hi;
  }
  return b;
}

Chunk* MemArray::GetOrCreateChunk(const Coordinates& origin) {
  auto it = chunks_.find(origin);
  if (it == chunks_.end()) {
    auto chunk = std::make_shared<Chunk>(ChunkBoxFor(origin), schema_.attrs());
    it = chunks_.emplace(origin, std::move(chunk)).first;
  } else if (it->second.use_count() > 1) {
    // Copy-on-write: MemArray copies are shallow (chunks shared), so a
    // mutation must not write through a chunk another array still sees
    // (e.g. `store A into B` then `insert B` must leave A intact).
    it->second = std::make_shared<Chunk>(*it->second);
  }
  return it->second.get();
}

const Chunk* MemArray::FindChunk(const Coordinates& origin) const {
  auto it = chunks_.find(origin);
  return it == chunks_.end() ? nullptr : it->second.get();
}

Status MemArray::UpsertChunk(const Chunk& src, const Box* clip) {
  return Upsert(src, clip, nullptr);
}

Status MemArray::UpsertChunk(std::shared_ptr<Chunk> src) {
  const Chunk& ref = *src;
  return Upsert(ref, nullptr, &src);
}

Status MemArray::Upsert(const Chunk& src, const Box* clip,
                        std::shared_ptr<Chunk>* adopt) {
  const Box& box = src.box();
  if (box.ndims() != schema_.ndims()) {
    return Status::Invalid("chunk arity " + std::to_string(box.ndims()) +
                           " != ndims " + std::to_string(schema_.ndims()));
  }
  if (src.nattrs() != schema_.nattrs()) {
    return Status::Invalid("chunk attribute count " +
                           std::to_string(src.nattrs()) + " != nattrs " +
                           std::to_string(schema_.nattrs()));
  }
  for (size_t a = 0; a < src.nattrs(); ++a) {
    if (src.block(a).type() != schema_.attr(a).type ||
        src.block(a).uncertain() != schema_.attr(a).uncertain) {
      return Status::Invalid("chunk attribute " + std::to_string(a) +
                             " does not match '" + schema_.attr(a).name +
                             "' of array '" + schema_.name() + "'");
    }
  }
  if (src.present_count() == 0) return Status::OK();
  Box region = box;
  if (clip != nullptr) {
    if (!box.Intersects(*clip)) return Status::OK();
    region = box.Intersect(*clip);
    for (size_t d = 0; d < region.ndims(); ++d) {
      if (region.low[d] > region.high[d]) return Status::OK();  // inverted
    }
  }
  // A box reaching past the declared bounds may still hold only in-bound
  // cells; check them one by one (never the case for chunks this engine
  // writes), then clip the region to the bounds.
  if (!schema_.ContainsCoords(region.low) ||
      !schema_.ContainsCoords(region.high)) {
    Coordinates c = region.low;
    do {
      if (src.IsPresent(RankInBox(box, c)) && !schema_.ContainsCoords(c)) {
        return Status::OutOfRange("cell " + CoordsToString(c) +
                                  " outside bounds of array '" +
                                  schema_.name() + "'");
      }
    } while (NextInBox(region, &c));
    for (size_t d = 0; d < region.ndims(); ++d) {
      const DimensionDesc& dim = schema_.dim(d);
      region.low[d] = std::max(region.low[d], dim.low);
      if (!dim.unbounded()) {
        region.high[d] = std::min(region.high[d], dim.high);
      }
      if (region.low[d] > region.high[d]) return Status::OK();
    }
  }

  const Coordinates& origin = box.low;
  if (region == box && ChunkOriginFor(origin) == origin &&
      ChunkBoxFor(origin) == box && chunks_.count(origin) == 0) {
    chunks_.emplace(origin, adopt != nullptr ? std::move(*adopt)
                                             : std::make_shared<Chunk>(src));
    return Status::OK();
  }

  // Split over the grid slots the region covers, in origin order.
  ForEachSlot(region, [&](const Coordinates& slot) {
    const Box part = ChunkBoxFor(slot).Intersect(region);
    if (src.AnyPresentIn(part)) {
      GetOrCreateChunk(slot)->CopyPresentFrom(src, part);  // copy-on-write
    }
  });
  return Status::OK();
}

Status MemArray::SetCell(const Coordinates& c,
                         const std::vector<Value>& values) {
  if (c.size() != schema_.ndims()) {
    return Status::Invalid("coordinate arity " + std::to_string(c.size()) +
                           " != ndims " + std::to_string(schema_.ndims()));
  }
  if (!schema_.ContainsCoords(c)) {
    return Status::OutOfRange("cell " + CoordsToString(c) +
                              " outside bounds of array '" + schema_.name() +
                              "'");
  }
  if (values.size() != schema_.nattrs()) {
    return Status::Invalid("value arity " + std::to_string(values.size()) +
                           " != nattrs " + std::to_string(schema_.nattrs()));
  }
  GetOrCreateChunk(ChunkOriginFor(c))->SetCell(c, values);
  return Status::OK();
}

Status MemArray::SetCell(const Coordinates& c, const Value& v) {
  return SetCell(c, std::vector<Value>{v});
}

std::optional<std::vector<Value>> MemArray::GetCell(
    const Coordinates& c) const {
  if (c.size() != schema_.ndims()) return std::nullopt;
  auto it = chunks_.find(ChunkOriginFor(c));
  if (it == chunks_.end()) return std::nullopt;
  const Chunk& chunk = *it->second;
  if (!chunk.IsPresentAt(c)) return std::nullopt;
  return chunk.GetCell(c);
}

bool MemArray::Exists(const Coordinates& c) const {
  if (c.size() != schema_.ndims()) return false;
  auto it = chunks_.find(ChunkOriginFor(c));
  return it != chunks_.end() && it->second->IsPresentAt(c);
}

Status MemArray::DeleteCell(const Coordinates& c) {
  auto it = chunks_.find(ChunkOriginFor(c));
  if (it == chunks_.end() || !it->second->IsPresentAt(c)) {
    return Status::NotFound("cell " + CoordsToString(c) + " not present");
  }
  // Copy-on-write, as in GetOrCreateChunk.
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Chunk>(*it->second);
  }
  it->second->MarkAbsent(RankInBox(it->second->box(), c));
  return Status::OK();
}

int64_t MemArray::CellCount() const {
  int64_t n = 0;
  for (const auto& [origin, chunk] : chunks_) n += chunk->present_count();
  return n;
}

size_t MemArray::ByteSize() const {
  size_t bytes = 0;
  for (const auto& [origin, chunk] : chunks_) bytes += chunk->ByteSize();
  return bytes;
}

Result<Box> MemArray::HighWaterMark() const {
  bool found = false;
  Box hwm;
  ForEachCell([&](const Coordinates& c, const Chunk&, int64_t) {
    if (!found) {
      hwm = Box(c, c);
      found = true;
    } else {
      hwm.ExpandToInclude(Box(c, c));
    }
    return true;
  });
  if (!found) {
    return Status::NotFound("array '" + schema_.name() + "' is empty");
  }
  return hwm;
}

}  // namespace scidb

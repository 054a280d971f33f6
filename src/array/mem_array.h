#ifndef SCIDB_ARRAY_MEM_ARRAY_H_
#define SCIDB_ARRAY_MEM_ARRAY_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"

namespace scidb {

// In-memory chunked array: the operand/result representation of the
// executor. Chunks are laid out on a regular grid (stride = per-dimension
// chunk_interval, anchored at each dimension's low bound); the storage
// manager additionally persists irregular merged buckets, but the exec
// layer always sees grid-aligned chunks.
class MemArray {
 public:
  MemArray() = default;
  explicit MemArray(ArraySchema schema) : schema_(std::move(schema)) {}

  const ArraySchema& schema() const { return schema_; }
  ArraySchema* mutable_schema() { return &schema_; }

  // Origin of the chunk containing `c` on the chunk grid.
  Coordinates ChunkOriginFor(const Coordinates& c) const;
  // The box covered by the chunk anchored at `origin` (clipped to declared
  // bounds for bounded dimensions).
  Box ChunkBoxFor(const Coordinates& origin) const;

  // Calls fn(origin) with the grid origin of every chunk slot `region`
  // overlaps, in origin order.
  template <typename Fn>
  void ForEachSlot(const Box& region, Fn&& fn) const {
    const Coordinates first = ChunkOriginFor(region.low);
    const Coordinates last = ChunkOriginFor(region.high);
    Coordinates slot = first;
    for (bool more = true; more;) {
      fn(static_cast<const Coordinates&>(slot));
      more = false;
      for (size_t d = slot.size(); d-- > 0 && !more;) {
        if (slot[d] < last[d]) {
          slot[d] += schema_.dim(d).chunk_interval;
          more = true;
        } else {
          slot[d] = first[d];
        }
      }
    }
  }

  Chunk* GetOrCreateChunk(const Coordinates& origin);
  const Chunk* FindChunk(const Coordinates& origin) const;

  // Upserts the present cells of `src` — only those inside `*clip`, when
  // given — last writer wins, as SetCell cell by cell would. A
  // grid-aligned chunk whose slot is free is adopted whole: a copy of
  // `src` here, `src` itself (shared, copy-on-write) in the shared_ptr
  // overload. Any other chunk is split over the grid slots it covers and
  // copied in typed row runs (Chunk::CopyPresentFrom). Cells absent from
  // `src` add nothing. Fails like SetCell (OutOfRange) when a present cell
  // lies outside the declared bounds, and with Invalid when `src`'s
  // attributes differ from the schema's; nothing is written then.
  Status UpsertChunk(const Chunk& src, const Box* clip = nullptr);
  Status UpsertChunk(std::shared_ptr<Chunk> src);

  // Cell API. SetCell validates bounds (OutOfRange on violation; unbounded
  // dimensions accept any coordinate >= low, paper §2.1's '*' marker).
  Status SetCell(const Coordinates& c, const std::vector<Value>& values);
  Status SetCell(const Coordinates& c, const Value& v);  // 1-attribute arrays
  // Empty optional when the cell is absent ("Exists? == false").
  std::optional<std::vector<Value>> GetCell(const Coordinates& c) const;
  [[nodiscard]] bool Exists(const Coordinates& c) const;
  Status DeleteCell(const Coordinates& c);

  int64_t CellCount() const;
  size_t ChunkCount() const { return chunks_.size(); }
  size_t ByteSize() const;

  // Tight bounding box of present cells — the high-water mark of unbounded
  // arrays. NotFound when the array is empty.
  Result<Box> HighWaterMark() const;

  const std::map<Coordinates, std::shared_ptr<Chunk>>& chunks() const {
    return chunks_;
  }
  std::map<Coordinates, std::shared_ptr<Chunk>>* mutable_chunks() {
    return &chunks_;
  }

  // Iterates every present cell in (chunk, row-major) order and invokes
  // fn(coords, chunk, rank). Stops early if fn returns false. Coordinates
  // are advanced odometer-style in a reused buffer — no per-cell
  // allocation (this loop is the hot path of every operator).
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    Coordinates c;
    for (const auto& [origin, chunk] : chunks_) {
      const Box& box = chunk->box();
      const int64_t cap = chunk->cell_capacity();
      c = box.low;
      for (int64_t rank = 0; rank < cap; ++rank) {
        // rank < cap guarantees the odometer has not wrapped, so the
        // has-more result carries no information here.
        if (rank > 0) (void)NextInBox(box, &c);
        if (!chunk->IsPresent(rank)) continue;
        if (!fn(c, *chunk, rank)) return;
      }
    }
  }

 private:
  Status Upsert(const Chunk& src, const Box* clip,
                std::shared_ptr<Chunk>* adopt);

  ArraySchema schema_;
  std::map<Coordinates, std::shared_ptr<Chunk>> chunks_;
};

}  // namespace scidb

#endif  // SCIDB_ARRAY_MEM_ARRAY_H_

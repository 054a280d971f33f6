#include "storage/chunk_serde.h"

#include "common/byte_io.h"
#include "common/macros.h"

namespace scidb {

namespace {
constexpr uint32_t kChunkMagic = 0x53434448;  // "SCDH"
}  // namespace

std::vector<uint8_t> SerializeChunk(const Chunk& chunk) {
  ByteWriter w;
  w.PutU32(kChunkMagic);
  const Box& box = chunk.box();
  w.PutVarint(box.ndims());
  for (size_t d = 0; d < box.ndims(); ++d) {
    w.PutSignedVarint(box.low[d]);
    w.PutSignedVarint(box.high[d]);
  }
  w.PutVarint(chunk.nattrs());

  // Present bitmap: one byte per cell (block codec shrinks the runs).
  const int64_t cells = chunk.cell_capacity();
  w.PutVarint(static_cast<uint64_t>(cells));
  std::vector<int64_t> present_ranks;
  for (int64_t rank = 0; rank < cells; ++rank) {
    bool p = chunk.IsPresent(rank);
    w.PutU8(p ? 1 : 0);
    if (p) present_ranks.push_back(rank);
  }

  for (size_t a = 0; a < chunk.nattrs(); ++a) {
    const AttributeBlock& b = chunk.block(a);
    w.PutU8(static_cast<uint8_t>(b.type()));
    w.PutU8(b.uncertain() ? 1 : 0);
    // Null flags for present cells.
    for (int64_t rank : present_ranks) {
      w.PutU8(b.IsNull(rank) ? 1 : 0);
    }
    // Values of present, non-null cells.
    int64_t prev_i64 = 0;
    for (int64_t rank : present_ranks) {
      if (b.IsNull(rank)) continue;
      Value v = b.Get(rank);
      switch (b.type()) {
        case DataType::kBool:
          w.PutU8(v.bool_value() ? 1 : 0);
          break;
        case DataType::kInt64: {
          int64_t x = b.GetInt64(rank);
          w.PutSignedVarint(x - prev_i64);  // delta coding
          prev_i64 = x;
          break;
        }
        case DataType::kFloat:
          w.PutFloat(static_cast<float>(b.GetDouble(rank)));
          break;
        case DataType::kDouble:
          w.PutDouble(b.GetDouble(rank));
          break;
        case DataType::kString:
          w.PutString(v.is_string() ? v.string_value() : std::string());
          break;
        case DataType::kArray: {
          // Nested arrays: shape + double payload (nested numeric arrays;
          // deeper nesting is flattened by the writer).
          if (!v.is_array()) {
            w.PutVarint(0);
            break;
          }
          const auto& na = *v.array_value();
          w.PutVarint(na.shape.size());
          for (int64_t s : na.shape) w.PutSignedVarint(s);
          w.PutVarint(na.values.size());
          for (const Value& nv : na.values) {
            auto d = nv.AsDouble();
            w.PutDouble(d.ok() ? d.value() : 0.0);
          }
          break;
        }
      }
    }
    if (b.uncertain()) {
      if (b.has_constant_stderr()) {
        w.PutU8(1);
        // One shared error bar — the §2.13 negligible-space encoding.
        w.PutDouble(present_ranks.empty() ? 0.0
                                          : b.GetStderr(present_ranks[0]));
      } else {
        w.PutU8(0);
        for (int64_t rank : present_ranks) {
          if (!b.IsNull(rank)) w.PutDouble(b.GetStderr(rank));
        }
      }
    }
  }
  return w.Release();
}

Result<Chunk> DeserializeChunk(const std::vector<uint8_t>& bytes,
                               const std::vector<AttributeDesc>& attrs) {
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kChunkMagic) {
    return Status::Corruption("bad chunk magic");
  }
  ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
  if (ndims == 0 || ndims > 64) return Status::Corruption("bad chunk ndims");
  Box box;
  box.low.resize(ndims);
  box.high.resize(ndims);
  for (size_t d = 0; d < ndims; ++d) {
    ASSIGN_OR_RETURN(box.low[d], r.GetSignedVarint());
    ASSIGN_OR_RETURN(box.high[d], r.GetSignedVarint());
    if (box.high[d] < box.low[d]) {
      return Status::Corruption("inverted chunk box");
    }
  }
  ASSIGN_OR_RETURN(uint64_t nattrs, r.GetVarint());
  if (nattrs != attrs.size()) {
    return Status::Corruption("chunk attr count mismatch: file has " +
                              std::to_string(nattrs) + ", manifest has " +
                              std::to_string(attrs.size()));
  }

  // Validate the box's cell capacity BEFORE constructing the Chunk:
  // Box::CellCount() multiplies extents unchecked, so a hostile box like
  // [INT64_MIN, INT64_MAX]^64 is signed-overflow UB and/or a multi-GB
  // allocation (found by fuzz_chunk_serde). Extents are computed in
  // uint64 (exact since high >= low; the +1 wraps to 0 only for the
  // full-int64 range, which the == 0 check rejects), and the running
  // product is capped by the payload size: the format stores at least one
  // present-bitmap byte per cell, so capacity can never legitimately
  // exceed the bytes remaining in the buffer.
  uint64_t capacity = 1;
  const uint64_t max_cells = r.remaining();
  for (size_t d = 0; d < ndims; ++d) {
    uint64_t extent = static_cast<uint64_t>(box.high[d]) -
                      static_cast<uint64_t>(box.low[d]) + 1;
    if (extent == 0 || extent > max_cells || capacity > max_cells / extent) {
      return Status::Corruption("chunk box larger than payload");
    }
    capacity *= extent;
  }
  ASSIGN_OR_RETURN(uint64_t cells, r.GetVarint());
  if (cells != capacity) {
    return Status::Corruption("chunk cell count mismatch");
  }
  if (cells > r.remaining()) {
    return Status::Corruption("chunk cell count exceeds payload");
  }

  Chunk chunk(box, attrs);
  if (static_cast<int64_t>(cells) != chunk.cell_capacity()) {
    return Status::Corruption("chunk cell count mismatch");
  }
  std::vector<int64_t> present_ranks;
  for (uint64_t rank = 0; rank < cells; ++rank) {
    ASSIGN_OR_RETURN(uint8_t p, r.GetU8());
    if (p) {
      chunk.MarkPresent(static_cast<int64_t>(rank));
      present_ranks.push_back(static_cast<int64_t>(rank));
    }
  }

  for (size_t a = 0; a < attrs.size(); ++a) {
    ASSIGN_OR_RETURN(uint8_t type_tag, r.GetU8());
    ASSIGN_OR_RETURN(uint8_t unc_tag, r.GetU8());
    if (static_cast<DataType>(type_tag) != attrs[a].type ||
        (unc_tag != 0) != attrs[a].uncertain) {
      return Status::Corruption("chunk attribute descriptor mismatch");
    }
    AttributeBlock& b = chunk.block(a);
    std::vector<uint8_t> nulls(present_ranks.size());
    for (size_t i = 0; i < present_ranks.size(); ++i) {
      ASSIGN_OR_RETURN(nulls[i], r.GetU8());
    }
    int64_t prev_i64 = 0;
    std::vector<size_t> value_positions;  // indices into present_ranks
    // Uncertain attributes: means are buffered and written together with
    // their error bars, so the constant-stderr collapse survives a
    // round trip (writing mean-then-stderr separately would adopt 0.0 as
    // the constant and immediately materialize the column).
    std::vector<double> means;
    const bool uncertain = attrs[a].uncertain;
    // Cells start null, so null cells need no write; non-uncertain
    // int64/double values go straight into their typed columns.
    for (size_t i = 0; i < present_ranks.size(); ++i) {
      int64_t rank = present_ranks[i];
      if (nulls[i]) continue;
      value_positions.push_back(i);
      switch (attrs[a].type) {
        case DataType::kBool: {
          ASSIGN_OR_RETURN(uint8_t v, r.GetU8());
          b.Set(rank, Value(v != 0));
          break;
        }
        case DataType::kInt64: {
          ASSIGN_OR_RETURN(int64_t delta, r.GetSignedVarint());
          prev_i64 += delta;
          if (uncertain) {
            means.push_back(static_cast<double>(prev_i64));
          } else {
            b.SetInt64(rank, prev_i64);
          }
          break;
        }
        case DataType::kFloat: {
          ASSIGN_OR_RETURN(float v, r.GetFloat());
          if (uncertain) {
            means.push_back(static_cast<double>(v));
          } else {
            b.Set(rank, Value(static_cast<double>(v)));
          }
          break;
        }
        case DataType::kDouble: {
          ASSIGN_OR_RETURN(double v, r.GetDouble());
          if (uncertain) {
            means.push_back(v);
          } else {
            b.SetDouble(rank, v);
          }
          break;
        }
        case DataType::kString: {
          ASSIGN_OR_RETURN(std::string s, r.GetString());
          b.Set(rank, Value(std::move(s)));
          break;
        }
        case DataType::kArray: {
          ASSIGN_OR_RETURN(uint64_t nd, r.GetVarint());
          if (nd == 0) break;  // no nested array: the cell stays null
          // Each shape entry is at least one varint byte, so a declared
          // rank beyond the remaining payload is corruption — checked
          // before resize() so a 5-byte varint cannot demand a 2^60-entry
          // allocation (found by fuzz_chunk_serde).
          if (nd > r.remaining()) {
            return Status::Corruption("nested array rank exceeds payload");
          }
          auto na = std::make_shared<NestedArray>();
          na->shape.resize(nd);
          for (uint64_t d = 0; d < nd; ++d) {
            ASSIGN_OR_RETURN(na->shape[d], r.GetSignedVarint());
          }
          ASSIGN_OR_RETURN(uint64_t nv, r.GetVarint());
          // Values are 8 bytes each; same declared-size-vs-payload guard.
          if (nv > r.remaining() / sizeof(double)) {
            return Status::Corruption("nested array size exceeds payload");
          }
          na->values.reserve(nv);
          for (uint64_t k = 0; k < nv; ++k) {
            ASSIGN_OR_RETURN(double v, r.GetDouble());
            na->values.emplace_back(v);
          }
          b.Set(rank, Value(std::move(na)));
          break;
        }
      }
    }
    if (attrs[a].uncertain) {
      ASSIGN_OR_RETURN(uint8_t is_const, r.GetU8());
      if (is_const) {
        ASSIGN_OR_RETURN(double s, r.GetDouble());
        for (size_t k = 0; k < value_positions.size(); ++k) {
          b.Set(present_ranks[value_positions[k]],
                Value(Uncertain(means[k], s)));
        }
      } else {
        for (size_t k = 0; k < value_positions.size(); ++k) {
          ASSIGN_OR_RETURN(double s, r.GetDouble());
          b.Set(present_ranks[value_positions[k]],
                Value(Uncertain(means[k], s)));
        }
      }
    }
  }
  return chunk;
}

}  // namespace scidb

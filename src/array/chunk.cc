#include "array/chunk.h"

#include <algorithm>
#include <cstring>

namespace scidb {

AttributeBlock::AttributeBlock(DataType type, bool uncertain, int64_t cells)
    : type_(type), uncertain_(uncertain), cells_(cells) {
  nulls_.assign(static_cast<size_t>(cells), 1);  // cells start null
  size_t n = static_cast<size_t>(cells);
  switch (type_) {
    case DataType::kBool:
      bools_.assign(n, 0);
      break;
    case DataType::kInt64:
      i64_.assign(n, 0);
      break;
    case DataType::kFloat:
      f32_.assign(n, 0.0f);
      break;
    case DataType::kDouble:
      f64_.assign(n, 0.0);
      break;
    case DataType::kString:
      strs_.assign(n, std::string());
      break;
    case DataType::kArray:
      arrays_.assign(n, nullptr);
      break;
  }
}

void AttributeBlock::MaterializeStderr() {
  if (!stderr_is_const_) return;
  stderrs_.assign(static_cast<size_t>(cells_), const_stderr_);
  stderr_is_const_ = false;
}

void AttributeBlock::Set(int64_t idx, const Value& v) {
  size_t i = static_cast<size_t>(idx);
  if (v.is_null()) {
    nulls_[i] = 1;
    return;
  }
  nulls_[i] = 0;
  switch (type_) {
    case DataType::kBool:
      bools_[i] = v.is_bool() ? (v.bool_value() ? 1 : 0)
                              : (v.AsInt64().ok() && v.AsInt64().value() != 0);
      break;
    case DataType::kInt64:
      i64_[i] = v.AsInt64().ok() ? v.AsInt64().value() : 0;
      break;
    case DataType::kFloat:
      f32_[i] = static_cast<float>(v.AsDouble().ok() ? v.AsDouble().value() : 0);
      break;
    case DataType::kDouble:
      f64_[i] = v.AsDouble().ok() ? v.AsDouble().value() : 0;
      break;
    case DataType::kString:
      strs_[i] = v.is_string() ? v.string_value() : v.ToString();
      break;
    case DataType::kArray:
      arrays_[i] = v.is_array() ? v.array_value() : nullptr;
      break;
  }
  if (uncertain_) {
    double s = v.is_uncertain() ? v.uncertain_value().stderr_ : 0.0;
    SetStderr(idx, s);
  }
}

Value AttributeBlock::Get(int64_t idx) const {
  size_t i = static_cast<size_t>(idx);
  if (nulls_[i]) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value(bools_[i] != 0);
    case DataType::kInt64:
      if (uncertain_) {
        return Value(Uncertain(static_cast<double>(i64_[i]), GetStderr(idx)));
      }
      return Value(i64_[i]);
    case DataType::kFloat:
      if (uncertain_) {
        return Value(Uncertain(static_cast<double>(f32_[i]), GetStderr(idx)));
      }
      return Value(static_cast<double>(f32_[i]));
    case DataType::kDouble:
      if (uncertain_) return Value(Uncertain(f64_[i], GetStderr(idx)));
      return Value(f64_[i]);
    case DataType::kString:
      return Value(strs_[i]);
    case DataType::kArray:
      return arrays_[i] ? Value(arrays_[i]) : Value::Null();
  }
  return Value::Null();
}

void AttributeBlock::SetDouble(int64_t i, double v) {
  SCIDB_DCHECK(type_ == DataType::kDouble);
  nulls_[static_cast<size_t>(i)] = 0;
  f64_[static_cast<size_t>(i)] = v;
}

double AttributeBlock::GetDouble(int64_t i) const {
  switch (type_) {
    case DataType::kDouble:
      return f64_[static_cast<size_t>(i)];
    case DataType::kFloat:
      return static_cast<double>(f32_[static_cast<size_t>(i)]);
    case DataType::kInt64:
      return static_cast<double>(i64_[static_cast<size_t>(i)]);
    case DataType::kBool:
    case DataType::kString:
    case DataType::kArray:
      // Non-numeric blocks have no double view; callers gate on type()
      // (and the kDouble-only setters DCHECK). Explicit cases so a new
      // DataType enumerator is a compile error here, not a silent 0.0.
      return 0.0;
  }
  return 0.0;
}

void AttributeBlock::SetInt64(int64_t i, int64_t v) {
  SCIDB_DCHECK(type_ == DataType::kInt64);
  nulls_[static_cast<size_t>(i)] = 0;
  i64_[static_cast<size_t>(i)] = v;
}

int64_t AttributeBlock::GetInt64(int64_t i) const {
  SCIDB_DCHECK(type_ == DataType::kInt64);
  return i64_[static_cast<size_t>(i)];
}

void AttributeBlock::SetStderr(int64_t i, double s) {
  if (stderr_is_const_) {
    if (!stderr_seen_) {
      // Adopt the first observed error bar as the shared constant.
      const_stderr_ = s;
      stderr_seen_ = true;
      return;
    }
    if (s == const_stderr_) return;
    // First deviating error bar: fall back to a full column.
    MaterializeStderr();
  }
  stderrs_[static_cast<size_t>(i)] = s;
}

double AttributeBlock::GetStderr(int64_t i) const {
  if (stderr_is_const_) return const_stderr_;
  return stderrs_[static_cast<size_t>(i)];
}

void AttributeBlock::CopyPresentRun(const AttributeBlock& src,
                                    int64_t src_rank, int64_t dst_rank,
                                    int64_t n, const uint8_t* present) {
  SCIDB_DCHECK(src.type_ == type_ && src.uncertain_ == uncertain_);
  const size_t s0 = static_cast<size_t>(src_rank);
  const size_t d0 = static_cast<size_t>(dst_rank);
  const size_t len = static_cast<size_t>(n);
  const bool dense = std::memchr(present, 0, len) == nullptr;
  auto copy = [&](auto& dst_col, const auto& src_col) {
    if (dense) {
      std::copy_n(src.nulls_.begin() + static_cast<ptrdiff_t>(s0), len,
                  nulls_.begin() + static_cast<ptrdiff_t>(d0));
      std::copy_n(src_col.begin() + static_cast<ptrdiff_t>(s0), len,
                  dst_col.begin() + static_cast<ptrdiff_t>(d0));
      return;
    }
    for (size_t k = 0; k < len; ++k) {
      if (!present[k]) continue;
      nulls_[d0 + k] = src.nulls_[s0 + k];
      dst_col[d0 + k] = src_col[s0 + k];
    }
  };
  bool numeric = false;
  switch (type_) {
    case DataType::kBool:
      copy(bools_, src.bools_);
      break;
    case DataType::kInt64:
      copy(i64_, src.i64_);
      numeric = true;
      break;
    case DataType::kFloat:
      copy(f32_, src.f32_);
      numeric = true;
      break;
    case DataType::kDouble:
      copy(f64_, src.f64_);
      numeric = true;
      break;
    case DataType::kString:
      copy(strs_, src.strs_);
      break;
    case DataType::kArray:
      copy(arrays_, src.arrays_);
      // Get() reads a non-null cell without a nested array as null.
      for (size_t k = 0; k < len; ++k) {
        if (present[k] && arrays_[d0 + k] == nullptr) nulls_[d0 + k] = 1;
      }
      break;
  }
  if (!uncertain_) return;
  // Error bars go through SetStderr in row-major order, so the constant
  // column collapses (or materializes) exactly as under per-cell Set.
  // Get() carries an error bar only for numeric types; Set() then
  // records 0 for the others.
  for (size_t k = 0; k < len; ++k) {
    if (!present[k] || nulls_[d0 + k]) continue;
    SetStderr(static_cast<int64_t>(d0 + k),
              numeric ? src.GetStderr(static_cast<int64_t>(s0 + k)) : 0.0);
  }
}

size_t AttributeBlock::ByteSize() const {
  size_t bytes = nulls_.size();
  bytes += bools_.size();
  bytes += i64_.size() * sizeof(int64_t);
  bytes += f32_.size() * sizeof(float);
  bytes += f64_.size() * sizeof(double);
  for (const auto& s : strs_) bytes += s.size() + sizeof(std::string);
  bytes += arrays_.size() * sizeof(void*);
  bytes += stderrs_.size() * sizeof(double);
  return bytes;
}

Chunk::Chunk(Box box, const std::vector<AttributeDesc>& attrs)
    : box_(std::move(box)) {
  int64_t cells = box_.CellCount();
  present_.assign(static_cast<size_t>(cells), 0);
  blocks_.reserve(attrs.size());
  for (const auto& a : attrs) {
    blocks_.emplace_back(a.type, a.uncertain, cells);
  }
}

void Chunk::MarkPresent(int64_t rank) {
  uint8_t& p = present_[static_cast<size_t>(rank)];
  if (!p) {
    p = 1;
    ++present_count_;
  }
}

void Chunk::MarkAbsent(int64_t rank) {
  uint8_t& p = present_[static_cast<size_t>(rank)];
  if (p) {
    p = 0;
    --present_count_;
  }
}

void Chunk::SetCell(const Coordinates& c, const std::vector<Value>& values) {
  SCIDB_DCHECK(box_.Contains(c)) << "cell " << CoordsToString(c)
                                 << " outside chunk " << box_.ToString();
  SCIDB_DCHECK(values.size() == blocks_.size());
  int64_t rank = RankInBox(box_, c);
  for (size_t a = 0; a < blocks_.size(); ++a) {
    blocks_[a].Set(rank, values[a]);
  }
  MarkPresent(rank);
}

std::vector<Value> Chunk::GetCell(const Coordinates& c) const {
  std::vector<Value> out(blocks_.size());
  if (!box_.Contains(c)) return out;
  int64_t rank = RankInBox(box_, c);
  if (!IsPresent(rank)) return out;
  for (size_t a = 0; a < blocks_.size(); ++a) {
    out[a] = blocks_[a].Get(rank);
  }
  return out;
}

void Chunk::CopyPresentFrom(const Chunk& src, const Box& box,
                            const std::vector<size_t>& src_attrs) {
  SCIDB_DCHECK(src_attrs.empty() ? src.nattrs() == nattrs()
                                 : src_attrs.size() == nattrs());
  SCIDB_DCHECK(box_.Contains(box.low) && box_.Contains(box.high) &&
               src.box_.Contains(box.low) && src.box_.Contains(box.high))
      << "copy box " << box.ToString() << " outside " << box_.ToString()
      << " or " << src.box_.ToString();
  if (box.ndims() == 0) return;
  const size_t last = box.ndims() - 1;
  const int64_t n = box.high[last] - box.low[last] + 1;
  Coordinates row = box.low;
  do {
    const int64_t sr = RankInBox(src.box_, row);
    const int64_t dr = RankInBox(box_, row);
    const uint8_t* present = src.present_.data() + sr;
    for (size_t a = 0; a < blocks_.size(); ++a) {
      blocks_[a].CopyPresentRun(
          src.blocks_[src_attrs.empty() ? a : src_attrs[a]], sr, dr, n,
          present);
    }
    for (int64_t k = 0; k < n; ++k) {
      if (present[k]) MarkPresent(dr + k);
    }
  } while (NextRowInBox(box, &row));
}

bool Chunk::AnyPresentIn(const Box& box) const {
  if (present_count_ == 0 || box.ndims() == 0) return false;
  const size_t last = box.ndims() - 1;
  const size_t n = static_cast<size_t>(box.high[last] - box.low[last] + 1);
  Coordinates row = box.low;
  do {
    const uint8_t* p = present_.data() + RankInBox(box_, row);
    if (std::any_of(p, p + n, [](uint8_t v) { return v != 0; })) return true;
  } while (NextRowInBox(box, &row));
  return false;
}

size_t Chunk::ByteSize() const {
  size_t bytes = present_.size();
  for (const auto& b : blocks_) bytes += b.ByteSize();
  return bytes;
}

}  // namespace scidb

#ifndef SCIDB_ARRAY_CHUNK_H_
#define SCIDB_ARRAY_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "common/result.h"
#include "types/uncertain.h"
#include "types/value.h"

namespace scidb {

// Columnar storage for one attribute inside one chunk. Values are dense in
// row-major order over the chunk box; a validity flag per cell marks which
// cells are present ("empty" cells are how sparse arrays and the Filter
// operator's NULL results are represented).
//
// Uncertain attributes carry a parallel stderr column. When every cell has
// the same error bar the column collapses to a single constant — the paper's
// §2.13 requirement that "arrays with the same error bounds for all values
// will require negligible extra space".
class AttributeBlock {
 public:
  AttributeBlock() = default;
  AttributeBlock(DataType type, bool uncertain, int64_t cells);

  DataType type() const { return type_; }
  bool uncertain() const { return uncertain_; }
  int64_t size() const { return cells_; }

  void Set(int64_t i, const Value& v);
  Value Get(int64_t i) const;

  bool IsNull(int64_t i) const { return nulls_[static_cast<size_t>(i)] != 0; }

  // Typed fast paths for hot operator loops; only valid for the matching
  // DataType (checked in debug builds).
  void SetDouble(int64_t i, double v);
  double GetDouble(int64_t i) const;
  void SetInt64(int64_t i, int64_t v);
  int64_t GetInt64(int64_t i) const;
  void SetStderr(int64_t i, double s);
  double GetStderr(int64_t i) const;

  // Copies the `n` cells of `src` starting at `src_rank` whose `present`
  // flag is set (present[k] covers src_rank + k) onto the cells starting
  // at `dst_rank`: typed values, null flags and error bars, with the same
  // result as Set(dst, src.Get(src)) cell by cell, including the
  // constant-stderr collapse (except that an uncertain int64 keeps all
  // its bits instead of passing through a double). `src` must have this
  // block's type and uncertainty.
  void CopyPresentRun(const AttributeBlock& src, int64_t src_rank,
                      int64_t dst_rank, int64_t n, const uint8_t* present);

  // Direct access to the dense payload for vectorized loops.
  std::vector<double>* mutable_doubles() { return &f64_; }
  const std::vector<double>& doubles() const { return f64_; }
  const std::vector<int64_t>& int64s() const { return i64_; }

  // True when the stderr column is a single constant (space optimization).
  bool has_constant_stderr() const { return stderr_is_const_; }

  // Approximate in-memory footprint, used by the loader's memory-pressure
  // flush and the space-accounting benchmarks.
  size_t ByteSize() const;

 private:
  DataType type_ = DataType::kDouble;
  bool uncertain_ = false;
  int64_t cells_ = 0;
  std::vector<uint8_t> nulls_;  // 1 == null

  // Exactly one of these is populated, per type_.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> i64_;
  std::vector<float> f32_;
  std::vector<double> f64_;
  std::vector<std::string> strs_;
  std::vector<std::shared_ptr<NestedArray>> arrays_;

  // stderr column for uncertain attributes; constant-collapsed when all
  // cells share one error bar.
  bool stderr_is_const_ = true;
  bool stderr_seen_ = false;
  double const_stderr_ = 0.0;
  std::vector<double> stderrs_;

  void MaterializeStderr();
};

// A chunk is one variable-size rectangular bucket of the array (paper
// §2.8): a box of cells with per-attribute columnar blocks plus a shared
// presence bitmap. Chunks are the unit of storage, compression, R-tree
// indexing, partitioning and parallel execution.
class Chunk {
 public:
  Chunk() = default;
  Chunk(Box box, const std::vector<AttributeDesc>& attrs);

  const Box& box() const { return box_; }
  size_t nattrs() const { return blocks_.size(); }
  int64_t cell_capacity() const { return box_.CellCount(); }
  int64_t present_count() const { return present_count_; }
  double density() const {
    return cell_capacity() == 0
               ? 0.0
               : static_cast<double>(present_count_) / cell_capacity();
  }

  AttributeBlock& block(size_t attr) { return blocks_[attr]; }
  const AttributeBlock& block(size_t attr) const { return blocks_[attr]; }

  bool IsPresent(int64_t rank) const {
    return present_[static_cast<size_t>(rank)] != 0;
  }
  bool IsPresentAt(const Coordinates& c) const {
    return box_.Contains(c) && IsPresent(RankInBox(box_, c));
  }
  void MarkPresent(int64_t rank);
  void MarkAbsent(int64_t rank);

  // Cell-level convenience API (operators use rank + block fast paths).
  void SetCell(const Coordinates& c, const std::vector<Value>& values);
  std::vector<Value> GetCell(const Coordinates& c) const;

  // Copies the present cells of `src` inside `box` into this chunk, one
  // typed row run per attribute. Absent source cells leave this chunk's
  // cells untouched, so copying several chunks in turn resolves overlaps
  // last-writer-wins, as SetCell does. `box` must lie inside both chunks'
  // boxes. Attribute i is copied from source attribute `src_attrs[i]`
  // (the same index when empty); the two must have the same type and
  // uncertainty.
  void CopyPresentFrom(const Chunk& src, const Box& box,
                       const std::vector<size_t>& src_attrs = {});
  // True when some cell of `box` (inside this chunk's box) is present.
  [[nodiscard]] bool AnyPresentIn(const Box& box) const;

  size_t ByteSize() const;

  // Iterates the ranks of present cells in row-major order.
  class CellIterator {
   public:
    explicit CellIterator(const Chunk& chunk) : chunk_(chunk) { Advance(0); }
    bool valid() const { return rank_ < chunk_.cell_capacity(); }
    int64_t rank() const { return rank_; }
    Coordinates coords() const { return UnrankInBox(chunk_.box(), rank_); }
    void Next() { Advance(rank_ + 1); }

   private:
    void Advance(int64_t from) {
      rank_ = from;
      while (rank_ < chunk_.cell_capacity() && !chunk_.IsPresent(rank_)) {
        ++rank_;
      }
    }
    const Chunk& chunk_;
    int64_t rank_ = 0;
  };

 private:
  Box box_;
  std::vector<AttributeBlock> blocks_;
  std::vector<uint8_t> present_;
  int64_t present_count_ = 0;
};

}  // namespace scidb

#endif  // SCIDB_ARRAY_CHUNK_H_

#ifndef SCIDB_STORAGE_STORAGE_MANAGER_H_
#define SCIDB_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "array/schema.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/chunk_cache.h"
#include "storage/codec.h"
#include "storage/rtree.h"

namespace scidb {

// Storage statistics for EXP-CHUNK and the loader/merger benchmarks.
struct StorageStats {
  int64_t buckets_written = 0;
  int64_t buckets_read = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
  int64_t bytes_logical = 0;  // uncompressed payload bytes written
  int64_t merges = 0;
};

// One array persisted on disk as a sequence of compressed rectangular
// buckets (paper §2.8). Buckets are appended to `<name>.data`; the bucket
// table and schema live in `<name>.manifest`, rewritten on Flush(). An
// R-tree indexes bucket boxes for region reads and merge planning.
class DiskArray {
 public:
  ~DiskArray();
  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  const ArraySchema& schema() const { return schema_; }
  size_t bucket_count() const { return buckets_.size(); }
  // By value: parallel reads mutate the counters concurrently, so a
  // reference would race with the readers it is trying to observe.
  StorageStats stats() const LOCKS_EXCLUDED(stats_mu_) {
    MutexLock lk(stats_mu_);
    return stats_;
  }
  CodecType codec() const { return codec_; }
  void set_codec(CodecType c) { codec_ = c; }

  // Appends one bucket holding `chunk`'s cells.
  Status WriteBucket(const Chunk& chunk);

  // Persists every chunk of `array` as a bucket.
  Status WriteAll(const MemArray& array);

  // Reads the cells intersecting `query` into a grid-aligned MemArray
  // (each bucket's chunk upserted clipped to `query`).
  Result<MemArray> ReadRegion(const Box& query) const;

  // Reads the whole array. With a pool, bucket read+decompress+decode
  // runs chunk-parallel (one bucket per morsel); the chunk upserts into
  // the output array stay single-threaded in bucket-id order, so the
  // result is identical at every pool width (DESIGN.md §8).
  Result<MemArray> ReadAll(ThreadPool* pool = nullptr) const;

  // Single cell lookup (empty optional when absent).
  Result<std::optional<std::vector<Value>>> ReadCell(
      const Coordinates& c) const;

  // One merge pass (the paper's Vertica-style background combine): merges
  // box-adjacent bucket pairs whose payloads are both below
  // `small_bytes`. Returns the number of merges performed. Reclaims the
  // dead bytes by rewriting the data file when fragmentation exceeds 50%.
  Result<int> MergeSmallBuckets(int64_t small_bytes);

  // Rewrites the manifest (schema + bucket table). Called by the storage
  // manager on close; callers needing crash-consistency call it directly.
  Status Flush();

  // Total size on disk (data file bytes in live buckets).
  int64_t LiveBytes() const;

  // Enables an LRU cache of decompressed buckets (0 disables). Repeated
  // region reads then skip disk + decompression for resident buckets.
  void EnableCache(size_t byte_budget);
  const ChunkCache* cache() const { return cache_.get(); }

 private:
  friend class StorageManager;
  DiskArray() = default;

  struct BucketMeta {
    uint64_t id = 0;
    Box box;
    uint64_t offset = 0;
    uint64_t size = 0;
    int64_t cells = 0;
  };

  Result<std::shared_ptr<const Chunk>> ReadBucket(const BucketMeta& meta)
      const;
  Status AppendPayload(const std::vector<uint8_t>& payload,
                       uint64_t* offset);
  Status LoadManifest();
  Status CompactDataFile();

  // Single-writer state (DESIGN.md Â§7): the write path is exercised by
  // one thread at a time, and bucket metadata is never mutated while
  // reads are in flight, so none of this is under stats_mu_.
  ArraySchema schema_;      // NOLINT(lock-coverage): single-writer
  std::string dir_;         // NOLINT(lock-coverage): single-writer
  std::string data_path_;   // NOLINT(lock-coverage): single-writer
  std::string manifest_path_;         // NOLINT(lock-coverage): single-writer
  CodecType codec_ = CodecType::kLz;  // NOLINT(lock-coverage): single-writer
  uint64_t next_id_ = 1;              // NOLINT(lock-coverage): single-writer
  uint64_t data_end_ = 0;  // append offset NOLINT(lock-coverage)
  std::map<uint64_t, BucketMeta> buckets_;  // NOLINT(lock-coverage)
  RTree<uint64_t> rtree_;                   // NOLINT(lock-coverage)
  // Guards only the stat counters; the cache synchronizes itself.
  mutable Mutex stats_mu_;
  mutable StorageStats stats_ GUARDED_BY(stats_mu_);
  mutable std::unique_ptr<ChunkCache> cache_;  // NOLINT(lock-coverage)
};

// Engine-wide storage: a directory of DiskArrays.
class StorageManager {
 public:
  explicit StorageManager(std::string dir);
  ~StorageManager();
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  Result<DiskArray*> CreateArray(const ArraySchema& schema,
                                 CodecType codec = CodecType::kLz);
  Result<DiskArray*> OpenArray(const std::string& name);
  // Creates if missing, opens (from manifest) if present on disk.
  Result<DiskArray*> OpenOrCreateArray(const ArraySchema& schema,
                                       CodecType codec = CodecType::kLz);
  Status DropArray(const std::string& name);
  std::vector<std::string> ArrayNames() const;
  Status FlushAll();

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<DiskArray>> arrays_;
};

// Streaming bulk loader (paper §2.8): cells arrive ordered by a dominant
// dimension (often time); they buffer in memory and flush to disk as
// rectangular buckets when the buffer exceeds `memory_budget` bytes.
class StreamLoader {
 public:
  StreamLoader(DiskArray* target, size_t memory_budget);

  Status Append(const Coordinates& c, const std::vector<Value>& values);
  // Flushes the residue; the loader is unusable afterwards.
  Status Finish();

  int64_t flushes() const { return flushes_; }

 private:
  Status FlushBuffer();

  DiskArray* target_;
  size_t memory_budget_;
  MemArray buffer_;
  int64_t flushes_ = 0;
  bool finished_ = false;
};

}  // namespace scidb

#endif  // SCIDB_STORAGE_STORAGE_MANAGER_H_

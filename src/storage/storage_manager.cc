#include "storage/storage_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "array/schema_serde.h"
#include "common/byte_io.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "storage/chunk_serde.h"

namespace scidb {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kManifestMagic = 0x53434D46;  // "SCMF"

// Process-wide storage metrics (naming per DESIGN.md §7), registered once.
struct StorageMetrics {
  Counter* buckets_written;
  Counter* buckets_read;
  Counter* bytes_written;
  Counter* bytes_read;
  Counter* bytes_logical;
  Histogram* bucket_read_latency_us;

  static const StorageMetrics& Get() {
    static auto* const m = new StorageMetrics{
        Metrics::Instance().counter("scidb.storage.buckets_written"),
        Metrics::Instance().counter("scidb.storage.buckets_read"),
        Metrics::Instance().counter("scidb.storage.bytes_written"),
        Metrics::Instance().counter("scidb.storage.bytes_read"),
        Metrics::Instance().counter("scidb.storage.bytes_logical"),
        Metrics::Instance().histogram(
            "scidb.storage.bucket_read_latency_us"),
    };
    return *m;
  }
};

// Manifest schema blocks use the shared canonical codec (DESIGN.md §15:
// the query server ships result schemas over the wire in the same
// format). Kept as thin local names so manifest read/write sites below
// stay unchanged.
void WriteSchemaTo(ByteWriter* w, const ArraySchema& s) {
  EncodeSchema(s, w);
}

Result<ArraySchema> ReadSchemaFrom(ByteReader* r) { return DecodeSchema(r); }

}  // namespace

// ------------------------------------------------------------- DiskArray

DiskArray::~DiskArray() {
  // Persist the manifest on teardown; never for a shell object that failed
  // to open (no schema), which must not leave a stray manifest behind.
  // Destructors have no error channel, so a failed flush is reported to
  // stderr instead of silently discarded; callers needing a hard
  // guarantee call Flush() themselves and check the Status.
  if (schema_.ndims() > 0) {
    Status st = Flush();
    if (!st.ok()) {
      std::cerr << "WARN DiskArray::~DiskArray flush failed: "
                << st.ToString() << std::endl;
    }
  }
}

Status DiskArray::AppendPayload(const std::vector<uint8_t>& payload,
                                uint64_t* offset) {
  std::ofstream f(data_path_, std::ios::binary | std::ios::app);
  if (!f) return Status::IOError("cannot open " + data_path_);
  *offset = data_end_;
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!f) return Status::IOError("short write to " + data_path_);
  data_end_ += payload.size();
  return Status::OK();
}

Status DiskArray::WriteBucket(const Chunk& chunk) {
  if (chunk.present_count() == 0) return Status::OK();  // nothing to store
  std::vector<uint8_t> raw = SerializeChunk(chunk);
  std::vector<uint8_t> payload = Compress(codec_, raw);
  uint64_t offset = 0;
  RETURN_NOT_OK(AppendPayload(payload, &offset));

  BucketMeta meta;
  meta.id = next_id_++;
  meta.box = chunk.box();
  meta.offset = offset;
  meta.size = payload.size();
  meta.cells = chunk.present_count();
  rtree_.Insert(meta.box, meta.id);
  buckets_.emplace(meta.id, std::move(meta));

  {
    MutexLock lk(stats_mu_);
    ++stats_.buckets_written;
    stats_.bytes_written += static_cast<int64_t>(payload.size());
    stats_.bytes_logical += static_cast<int64_t>(raw.size());
  }
  const StorageMetrics& m = StorageMetrics::Get();
  m.buckets_written->Inc();
  m.bytes_written->Inc(static_cast<int64_t>(payload.size()));
  m.bytes_logical->Inc(static_cast<int64_t>(raw.size()));
  return Status::OK();
}

Status DiskArray::WriteAll(const MemArray& array) {
  if (!(array.schema() == schema_)) {
    return Status::Invalid("array schema does not match DiskArray '" +
                           schema_.name() + "'");
  }
  for (const auto& [origin, chunk] : array.chunks()) {
    RETURN_NOT_OK(WriteBucket(*chunk));
  }
  return Status::OK();
}

void DiskArray::EnableCache(size_t byte_budget) {
  if (byte_budget == 0) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<ChunkCache>(byte_budget);
}

Result<std::shared_ptr<const Chunk>> DiskArray::ReadBucket(
    const BucketMeta& meta) const {
  if (cache_ != nullptr) {
    if (auto hit = cache_->Get(meta.id); hit != nullptr) return hit;
  }
  uint64_t t0 = SteadyNowNs();
  std::ifstream f(data_path_, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + data_path_);
  f.seekg(static_cast<std::streamoff>(meta.offset));
  std::vector<uint8_t> payload(meta.size);
  f.read(reinterpret_cast<char*>(payload.data()),
         static_cast<std::streamsize>(meta.size));
  if (!f) return Status::IOError("short read from " + data_path_);
  {
    MutexLock lk(stats_mu_);
    ++stats_.buckets_read;
    stats_.bytes_read += static_cast<int64_t>(meta.size);
  }
  const StorageMetrics& m = StorageMetrics::Get();
  m.buckets_read->Inc();
  m.bytes_read->Inc(static_cast<int64_t>(meta.size));
  m.bucket_read_latency_us->Record(
      static_cast<int64_t>((SteadyNowNs() - t0) / 1000));
  ASSIGN_OR_RETURN(std::vector<uint8_t> raw, Decompress(payload));
  ASSIGN_OR_RETURN(Chunk chunk, DeserializeChunk(raw, schema_.attrs()));
  auto shared = std::make_shared<const Chunk>(std::move(chunk));
  if (cache_ != nullptr) cache_->Put(meta.id, shared);
  return shared;
}

Result<MemArray> DiskArray::ReadRegion(const Box& query) const {
  if (query.ndims() != schema_.ndims()) {
    return Status::Invalid("query box arity mismatch");
  }
  // Upsert in bucket-id order, as ReadAll does: overlapping buckets then
  // resolve last-writer-wins whatever order the R-tree returns them in.
  std::vector<uint64_t> ids = rtree_.Search(query);
  std::sort(ids.begin(), ids.end());
  MemArray out(schema_);
  for (uint64_t id : ids) {
    auto it = buckets_.find(id);
    if (it == buckets_.end()) {
      return Status::Internal("r-tree references missing bucket " +
                              std::to_string(id));
    }
    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> chunk,
                     ReadBucket(it->second));
    RETURN_NOT_OK(out.UpsertChunk(*chunk, &query));
  }
  return out;
}

Result<MemArray> DiskArray::ReadAll(ThreadPool* pool) const {
  // Phase 1 (parallel when a pool is supplied): read + decompress +
  // deserialize every bucket into an id-ordered slot vector. ReadBucket
  // is safe concurrently — each call has a private ifstream, the stat
  // counters are mutex-guarded, and the cache synchronizes itself.
  std::vector<const BucketMeta*> metas;
  metas.reserve(buckets_.size());
  for (const auto& [id, meta] : buckets_) metas.push_back(&meta);
  std::vector<std::shared_ptr<const Chunk>> slots(metas.size());
  auto read_one = [&](int64_t i) -> Status {
    ASSIGN_OR_RETURN(slots[static_cast<size_t>(i)],
                     ReadBucket(*metas[static_cast<size_t>(i)]));
    return Status::OK();
  };
  if (pool != nullptr) {
    RETURN_NOT_OK(pool->ParallelFor(static_cast<int64_t>(metas.size()),
                                    read_one));
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(metas.size()); ++i) {
      RETURN_NOT_OK(read_one(i));
    }
  }

  // Phase 2 (always single-threaded): upsert the buckets in bucket-id
  // order, so overlapping buckets resolve last-writer-wins identically at
  // every pool width. Grid-aligned buckets are adopted (copied out of the
  // cache's shared entry); merged ones are split over their grid slots.
  MemArray out(schema_);
  for (const std::shared_ptr<const Chunk>& chunk : slots) {
    RETURN_NOT_OK(out.UpsertChunk(*chunk));
  }
  return out;
}

Result<std::optional<std::vector<Value>>> DiskArray::ReadCell(
    const Coordinates& c) const {
  // The newest bucket holding the cell is its last writer.
  std::vector<uint64_t> ids = rtree_.Search(Box(c, c));
  std::sort(ids.rbegin(), ids.rend());
  for (uint64_t id : ids) {
    auto it = buckets_.find(id);
    if (it == buckets_.end()) continue;
    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> chunk,
                     ReadBucket(it->second));
    if (chunk->IsPresentAt(c)) {
      return std::optional<std::vector<Value>>(chunk->GetCell(c));
    }
  }
  return std::optional<std::vector<Value>>(std::nullopt);
}

Result<int> DiskArray::MergeSmallBuckets(int64_t small_bytes) {
  // Plan: group small buckets into pairs that are box-adjacent along one
  // dimension and identical along the others ("combine buckets into
  // larger ones", §2.8).
  auto adjacent = [](const Box& a, const Box& b) -> int {
    int join_dim = -1;
    for (size_t d = 0; d < a.ndims(); ++d) {
      if (a.low[d] == b.low[d] && a.high[d] == b.high[d]) continue;
      if (join_dim >= 0) return -1;  // differs in two dims
      if (a.high[d] + 1 == b.low[d] || b.high[d] + 1 == a.low[d]) {
        join_dim = static_cast<int>(d);
      } else {
        return -1;
      }
    }
    return join_dim;
  };

  int merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    const BucketMeta* first = nullptr;
    const BucketMeta* second = nullptr;
    for (auto it = buckets_.begin(); it != buckets_.end() && !second; ++it) {
      if (static_cast<int64_t>(it->second.size) > small_bytes) continue;
      for (auto jt = std::next(it); jt != buckets_.end(); ++jt) {
        if (static_cast<int64_t>(jt->second.size) > small_bytes) continue;
        if (adjacent(it->second.box, jt->second.box) >= 0) {
          first = &it->second;
          second = &jt->second;
          break;
        }
      }
    }
    if (second == nullptr) break;

    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> a, ReadBucket(*first));
    ASSIGN_OR_RETURN(std::shared_ptr<const Chunk> b, ReadBucket(*second));
    Box merged_box = a->box();
    merged_box.ExpandToInclude(b->box());
    Chunk merged(merged_box, schema_.attrs());
    for (const Chunk* src : {a.get(), b.get()}) {
      merged.CopyPresentFrom(*src, src->box());
    }
    uint64_t id_a = first->id;
    uint64_t id_b = second->id;
    // A bucket the manifest knows about must be indexed; failure here
    // means the R-tree and bucket table have diverged (index corruption).
    SCIDB_CHECK(rtree_.Remove(first->box, id_a))
        << "bucket " << id_a << " missing from R-tree";
    SCIDB_CHECK(rtree_.Remove(second->box, id_b))
        << "bucket " << id_b << " missing from R-tree";
    buckets_.erase(id_a);
    buckets_.erase(id_b);
    if (cache_ != nullptr) {
      cache_->Invalidate(id_a);
      cache_->Invalidate(id_b);
    }
    RETURN_NOT_OK(WriteBucket(merged));
    ++merges;
    {
      MutexLock lk(stats_mu_);
      ++stats_.merges;
    }
    progress = true;
  }

  // Reclaim dead space when more than half the data file is garbage.
  int64_t live = LiveBytes();
  if (merges > 0 && data_end_ > 0 &&
      live * 2 < static_cast<int64_t>(data_end_)) {
    RETURN_NOT_OK(CompactDataFile());
  }
  if (merges > 0) RETURN_NOT_OK(Flush());
  return merges;
}

int64_t DiskArray::LiveBytes() const {
  int64_t live = 0;
  for (const auto& [id, meta] : buckets_) {
    live += static_cast<int64_t>(meta.size);
  }
  return live;
}

Status DiskArray::CompactDataFile() {
  std::string tmp = data_path_ + ".compact";
  {
    std::ifstream in(data_path_, std::ios::binary);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!in || !out) return Status::IOError("compaction open failed");
    uint64_t new_off = 0;
    for (auto& [id, meta] : buckets_) {
      std::vector<char> buf(meta.size);
      in.seekg(static_cast<std::streamoff>(meta.offset));
      in.read(buf.data(), static_cast<std::streamsize>(meta.size));
      if (!in) return Status::IOError("compaction read failed");
      out.write(buf.data(), static_cast<std::streamsize>(meta.size));
      if (!out) return Status::IOError("compaction write failed");
      meta.offset = new_off;
      new_off += meta.size;
    }
    data_end_ = new_off;
  }
  std::error_code ec;
  fs::rename(tmp, data_path_, ec);
  if (ec) return Status::IOError("compaction rename failed: " + ec.message());
  return Status::OK();
}

Status DiskArray::Flush() {
  ByteWriter w;
  w.PutU32(kManifestMagic);
  WriteSchemaTo(&w, schema_);
  w.PutU8(static_cast<uint8_t>(codec_));
  w.PutU64(next_id_);
  w.PutU64(data_end_);
  w.PutVarint(buckets_.size());
  for (const auto& [id, meta] : buckets_) {
    w.PutU64(meta.id);
    w.PutVarint(meta.box.ndims());
    for (size_t d = 0; d < meta.box.ndims(); ++d) {
      w.PutSignedVarint(meta.box.low[d]);
      w.PutSignedVarint(meta.box.high[d]);
    }
    w.PutU64(meta.offset);
    w.PutU64(meta.size);
    w.PutSignedVarint(meta.cells);
  }
  std::string tmp = manifest_path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::IOError("cannot open " + tmp);
    f.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
    if (!f) return Status::IOError("short manifest write");
  }
  std::error_code ec;
  fs::rename(tmp, manifest_path_, ec);
  if (ec) return Status::IOError("manifest rename failed: " + ec.message());
  return Status::OK();
}

Status DiskArray::LoadManifest() {
  std::ifstream f(manifest_path_, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + manifest_path_);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kManifestMagic) return Status::Corruption("bad manifest");
  ASSIGN_OR_RETURN(schema_, ReadSchemaFrom(&r));
  ASSIGN_OR_RETURN(uint8_t codec, r.GetU8());
  codec_ = static_cast<CodecType>(codec);
  ASSIGN_OR_RETURN(next_id_, r.GetU64());
  ASSIGN_OR_RETURN(data_end_, r.GetU64());
  ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    BucketMeta meta;
    ASSIGN_OR_RETURN(meta.id, r.GetU64());
    ASSIGN_OR_RETURN(uint64_t ndims, r.GetVarint());
    meta.box.low.resize(ndims);
    meta.box.high.resize(ndims);
    for (uint64_t d = 0; d < ndims; ++d) {
      ASSIGN_OR_RETURN(meta.box.low[d], r.GetSignedVarint());
      ASSIGN_OR_RETURN(meta.box.high[d], r.GetSignedVarint());
    }
    ASSIGN_OR_RETURN(meta.offset, r.GetU64());
    ASSIGN_OR_RETURN(meta.size, r.GetU64());
    ASSIGN_OR_RETURN(meta.cells, r.GetSignedVarint());
    rtree_.Insert(meta.box, meta.id);
    buckets_.emplace(meta.id, std::move(meta));
  }
  return Status::OK();
}

// -------------------------------------------------------- StorageManager

StorageManager::StorageManager(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

StorageManager::~StorageManager() {
  // Same policy as ~DiskArray: report, don't drop.
  Status st = FlushAll();
  if (!st.ok()) {
    std::cerr << "WARN StorageManager::~StorageManager flush failed: "
              << st.ToString() << std::endl;
  }
}

Result<DiskArray*> StorageManager::CreateArray(const ArraySchema& schema,
                                               CodecType codec) {
  RETURN_NOT_OK(schema.Validate());
  if (arrays_.count(schema.name())) {
    return Status::AlreadyExists("array '" + schema.name() +
                                 "' already open");
  }
  auto arr = std::unique_ptr<DiskArray>(new DiskArray());
  arr->schema_ = schema;
  arr->dir_ = dir_;
  arr->data_path_ = dir_ + "/" + schema.name() + ".data";
  arr->manifest_path_ = dir_ + "/" + schema.name() + ".manifest";
  arr->codec_ = codec;
  if (fs::exists(arr->manifest_path_)) {
    return Status::AlreadyExists("array '" + schema.name() +
                                 "' exists on disk; use OpenArray");
  }
  // Truncate any stale data file.
  std::ofstream(arr->data_path_, std::ios::binary | std::ios::trunc);
  DiskArray* ptr = arr.get();
  arrays_.emplace(schema.name(), std::move(arr));
  return ptr;
}

Result<DiskArray*> StorageManager::OpenArray(const std::string& name) {
  auto it = arrays_.find(name);
  if (it != arrays_.end()) return it->second.get();
  if (!fs::exists(dir_ + "/" + name + ".manifest")) {
    return Status::NotFound("no array '" + name + "' in " + dir_);
  }
  auto arr = std::unique_ptr<DiskArray>(new DiskArray());
  arr->dir_ = dir_;
  arr->data_path_ = dir_ + "/" + name + ".data";
  arr->manifest_path_ = dir_ + "/" + name + ".manifest";
  RETURN_NOT_OK(arr->LoadManifest());
  DiskArray* ptr = arr.get();
  arrays_.emplace(name, std::move(arr));
  return ptr;
}

Result<DiskArray*> StorageManager::OpenOrCreateArray(
    const ArraySchema& schema, CodecType codec) {
  auto opened = OpenArray(schema.name());
  if (opened.ok()) return opened;
  return CreateArray(schema, codec);
}

Status StorageManager::DropArray(const std::string& name) {
  auto it = arrays_.find(name);
  std::string data = dir_ + "/" + name + ".data";
  std::string manifest = dir_ + "/" + name + ".manifest";
  if (it == arrays_.end() && !fs::exists(manifest)) {
    return Status::NotFound("no array '" + name + "'");
  }
  arrays_.erase(name);
  std::error_code ec;
  fs::remove(data, ec);
  fs::remove(manifest, ec);
  return Status::OK();
}

std::vector<std::string> StorageManager::ArrayNames() const {
  std::vector<std::string> names;
  for (const auto& [name, arr] : arrays_) names.push_back(name);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string fn = entry.path().filename().string();
    const std::string suffix = ".manifest";
    if (fn.size() > suffix.size() &&
        fn.substr(fn.size() - suffix.size()) == suffix) {
      std::string name = fn.substr(0, fn.size() - suffix.size());
      if (!arrays_.count(name)) names.push_back(name);
    }
  }
  return names;
}

Status StorageManager::FlushAll() {
  for (auto& [name, arr] : arrays_) {
    RETURN_NOT_OK(arr->Flush());
  }
  return Status::OK();
}

// ---------------------------------------------------------- StreamLoader

StreamLoader::StreamLoader(DiskArray* target, size_t memory_budget)
    : target_(target), memory_budget_(memory_budget),
      buffer_(target->schema()) {}

Status StreamLoader::Append(const Coordinates& c,
                            const std::vector<Value>& values) {
  if (finished_) return Status::Invalid("loader already finished");
  RETURN_NOT_OK(buffer_.SetCell(c, values));
  if (buffer_.ByteSize() >= memory_budget_) {
    RETURN_NOT_OK(FlushBuffer());
  }
  return Status::OK();
}

Status StreamLoader::FlushBuffer() {
  if (buffer_.CellCount() == 0) return Status::OK();
  RETURN_NOT_OK(target_->WriteAll(buffer_));
  buffer_ = MemArray(target_->schema());
  ++flushes_;
  return Status::OK();
}

Status StreamLoader::Finish() {
  if (finished_) return Status::Invalid("loader already finished");
  finished_ = true;
  RETURN_NOT_OK(FlushBuffer());
  return target_->Flush();
}

}  // namespace scidb

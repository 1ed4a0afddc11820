#include "serve/result_cache.h"

#include <cstring>

namespace textjoin {

namespace {

void AppendRaw(std::string* out, const void* bytes, size_t n) {
  out->append(static_cast<const char*>(bytes), n);
}

void AppendInt(std::string* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  AppendRaw(out, buf, 8);
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendInt(out, static_cast<int64_t>(bits));
}

}  // namespace

CacheKeyBuilder& CacheKeyBuilder::Add(const std::string& field) {
  key_.push_back('s');
  AppendInt(&key_, static_cast<int64_t>(field.size()));
  key_.append(field);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::AddInt(int64_t v) {
  key_.push_back('i');
  AppendInt(&key_, v);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::AddDouble(double v) {
  key_.push_back('d');
  AppendDouble(&key_, v);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::AddCells(const std::vector<DCell>& cells) {
  key_.push_back('c');
  AppendInt(&key_, static_cast<int64_t>(cells.size()));
  for (const DCell& c : cells) {
    AppendInt(&key_, c.term);
    AppendDouble(&key_, c.weight);
  }
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::AddDocs(const std::vector<DocId>& docs) {
  key_.push_back('D');
  AppendInt(&key_, static_cast<int64_t>(docs.size()));
  for (DocId d : docs) AppendInt(&key_, d);
  return *this;
}

std::string ServeQueryCacheKey(const std::string& collection, int64_t epoch,
                               const std::vector<DCell>& query_cells,
                               int64_t lambda, const SimilarityConfig& sim,
                               const PruningConfig& pruning) {
  CacheKeyBuilder b;
  b.Add("serve")
      .Add(collection)
      .AddInt(epoch)
      .AddCells(query_cells)
      .AddInt(lambda)
      .AddBool(sim.cosine_normalize)
      .AddBool(sim.use_idf)
      .AddBool(pruning.bound_skip)
      .AddBool(pruning.early_exit)
      .AddBool(pruning.block_skip);
  return b.Take();
}

std::string JoinCacheKey(const std::string& inner, int64_t inner_epoch,
                         const std::string& outer, int64_t outer_epoch,
                         const JoinSpec& spec) {
  CacheKeyBuilder b;
  b.Add("join")
      .Add(inner)
      .AddInt(inner_epoch)
      .Add(outer)
      .AddInt(outer_epoch)
      .AddInt(spec.lambda)
      .AddBool(spec.similarity.cosine_normalize)
      .AddBool(spec.similarity.use_idf)
      .AddBool(spec.pruning.bound_skip)
      .AddBool(spec.pruning.early_exit)
      .AddBool(spec.pruning.block_skip)
      .AddDocs(spec.outer_subset)
      .AddDocs(spec.inner_subset);
  return b.Take();
}

std::optional<CachedResult> ResultCache::Lookup(const std::string& key) {
  if (capacity_ <= 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  ++stats_.hits;
  return it->second->value;
}

void ResultCache::Insert(const std::string& key, CachedResult value,
                         std::vector<std::string> collections) {
  if (capacity_ <= 0) return;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    it->second->collections = std::move(collections);
    entries_.splice(entries_.begin(), entries_, it->second);
    ++stats_.insertions;
    return;
  }
  entries_.push_front(Entry{key, std::move(value), std::move(collections)});
  index_[key] = entries_.begin();
  ++stats_.insertions;
  EvictToCapacity();
}

void ResultCache::EraseCollection(const std::string& collection) {
  // A zero-capacity cache holds no entries by construction (set_capacity
  // and Insert both enforce it), so an epoch bump — or several within one
  // scheduler round — is a guaranteed no-op rather than a walk of a list
  // that must be empty.
  if (capacity_ <= 0) return;
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool depends = false;
    for (const std::string& c : it->collections) {
      if (c == collection) {
        depends = true;
        break;
      }
    }
    if (depends) {
      index_.erase(it->key);
      it = entries_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

void ResultCache::set_capacity(int64_t capacity_entries) {
  capacity_ = capacity_entries;
  if (capacity_ <= 0) {
    entries_.clear();
    index_.clear();
    return;
  }
  EvictToCapacity();
}

void ResultCache::Clear() {
  entries_.clear();
  index_.clear();
}

void ResultCache::EvictToCapacity() {
  while (static_cast<int64_t>(entries_.size()) > capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++stats_.evictions;
  }
}

}  // namespace textjoin

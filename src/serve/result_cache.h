#ifndef TEXTJOIN_SERVE_RESULT_CACHE_H_
#define TEXTJOIN_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "join/executor.h"
#include "planner/planner.h"
#include "text/types.h"

namespace textjoin {

// ResultCache: the serving layer's memory for repeated queries — the
// millions-of-users pattern is a heavy-tailed query distribution, so a
// small LRU over (collection epoch, normalized query terms, lambda,
// scoring variant) absorbs most of the load.
//
// Cache-key soundness (DESIGN.md section 9): a key must pin down every
// input that can change the RESULT BITS. The engine's invariants make the
// key small: algorithm choice (agreement_test) and memory-budget
// degradation (governance_test) are bit-identical, so neither is keyed.
// Deadlines and admission outcomes are NOT keyed either: they decide
// whether a query completes, never what a completed query returns, and
// only fully completed queries are inserted (a cancelled query inserts
// nothing — the poison-resistance property governance_test checks).

// One cached, fully completed result.
struct CachedResult {
  // For a serving query: one OuterMatches row (outer_doc = 0) holding the
  // top-lambda matches. For a Database join: the whole JoinResult.
  JoinResult rows;
  // The plan that produced a cached Database join (so EXPLAIN and the
  // `chosen` out-param stay meaningful on hits). Unused by serve queries.
  PlanChoice plan;
  bool has_plan = false;
};

// Builds unambiguous cache keys: every field is length- or tag-delimited,
// so no two distinct field sequences collide.
class CacheKeyBuilder {
 public:
  CacheKeyBuilder& Add(const std::string& field);
  CacheKeyBuilder& AddInt(int64_t v);
  CacheKeyBuilder& AddDouble(double v);  // exact bit pattern
  CacheKeyBuilder& AddBool(bool v) { return AddInt(v ? 1 : 0); }
  CacheKeyBuilder& AddCells(const std::vector<DCell>& cells);
  CacheKeyBuilder& AddDocs(const std::vector<DocId>& docs);

  std::string Take() { return std::move(key_); }

 private:
  std::string key_;
};

// The key of one serving query: collection identity + epoch, the
// normalized query vector (sorted unique (term, weight) cells — two texts
// with the same bag of words share a key), lambda and scoring variant.
std::string ServeQueryCacheKey(const std::string& collection, int64_t epoch,
                               const std::vector<DCell>& query_cells,
                               int64_t lambda, const SimilarityConfig& sim);

// The key of one Database join: both collections + epochs and the
// result-relevant JoinSpec fields (lambda, scoring, subsets).
std::string JoinCacheKey(const std::string& inner, int64_t inner_epoch,
                         const std::string& outer, int64_t outer_epoch,
                         const JoinSpec& spec);

class ResultCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;      // LRU capacity evictions
    int64_t invalidations = 0;  // epoch-bump erasures
  };

  // capacity_entries == 0 disables the cache (every lookup misses, every
  // insert is dropped).
  explicit ResultCache(int64_t capacity_entries = 0)
      : capacity_(capacity_entries) {}

  // Copy of the cached result, LRU-touched; std::nullopt on miss.
  std::optional<CachedResult> Lookup(const std::string& key);

  // Inserts (or refreshes) a fully completed result. `collections` names
  // the collections the result depends on, for epoch invalidation.
  void Insert(const std::string& key, CachedResult value,
              std::vector<std::string> collections);

  // Drops every entry that depends on `collection` (epoch bump). Entries
  // keyed under the old epoch could never be looked up again anyway —
  // eager erasure keeps them from squatting in the LRU.
  void EraseCollection(const std::string& collection);

  // Resizes; shrinking evicts LRU entries. 0 clears and disables.
  void set_capacity(int64_t capacity_entries);

  void Clear();

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  int64_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string key;
    CachedResult value;
    std::vector<std::string> collections;
  };

  void EvictToCapacity();

  int64_t capacity_;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_SERVE_RESULT_CACHE_H_

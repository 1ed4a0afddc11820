#ifndef TEXTJOIN_JOIN_HVNL_H_
#define TEXTJOIN_JOIN_HVNL_H_

#include "join/executor.h"

namespace textjoin {

// Horizontal-Vertical Nested Loop (Section 4.2): reads each outer (C2)
// document in turn and probes the inverted file on C1 for the document's
// terms, accumulating similarities against all C1 documents at once.
//
// Memory budget (the paper's formula): after one outer document
// (ceil(S2) pages), the whole C1 B+tree (Bt1 pages, loaded once up front)
// and the non-zero similarity accumulator (4*N1*delta/P pages), the
// remaining buffer caches
//   X = floor((B - ceil(S2) - Bt1 - 4*N1*delta/P) / (J1 + |t#|/P))
// inverted entries. On overflow, the entry whose term has the lowest
// document frequency *in C2* is replaced — it is the least likely to be
// needed again (the paper's policy). LRU is available as an ablation.
class HvnlJoin : public TextJoinAlgorithm {
 public:
  enum class Replacement {
    kLowestOuterDf,  // the paper's policy
    kLru,            // ablation baseline
  };

  // In which order the outer documents are processed.
  enum class OuterOrder {
    // Storage order: one sequential scan of C2 (the paper's choice).
    kStorage,
    // The "seemingly attractive alternative" of Section 4.2: always pick
    // the unprocessed document whose terms' inverted entries intersect
    // the cache the most. The paper points out both problems this has —
    // the optimal order is NP-hard (greedy is a heuristic) and documents
    // are no longer read in storage order (every read is positioned) —
    // and this implementation exhibits exactly those costs: one metered
    // pass over C2 to learn the term lists, then positioned re-reads in
    // greedy order. bench_ablation_hvnl weighs the fetch savings against
    // the extra document I/O.
    kGreedyIntersection,
  };

  struct Options {
    Replacement replacement = Replacement::kLowestOuterDf;
    OuterOrder order = OuterOrder::kStorage;
  };

  HvnlJoin() : HvnlJoin(Options{}) {}
  explicit HvnlJoin(Options options) : options_(options) {}

  Algorithm kind() const override { return Algorithm::kHvnl; }

  Result<JoinResult> Run(const JoinContext& ctx,
                         const JoinSpec& spec) override;

  // The entry-cache capacity (number of inverted entries); negative means
  // the fixed parts alone do not fit.
  static int64_t CacheCapacity(const JoinContext& ctx, const JoinSpec& spec);

  // Observability for tests and ablations.
  struct RunStats {
    int64_t entry_fetches = 0;  // entries read from disk (incl. re-reads)
    int64_t cache_hits = 0;
    int64_t evictions = 0;
  };
  const RunStats& run_stats() const { return run_stats_; }

 private:
  Options options_;
  RunStats run_stats_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_HVNL_H_

#ifndef TEXTJOIN_JOIN_HVNL_H_
#define TEXTJOIN_JOIN_HVNL_H_

#include "join/executor.h"

namespace textjoin {

// Horizontal-Vertical Nested Loop (Section 4.2): reads each outer (C2)
// document in storage order and probes the inverted file on C1 for the
// document's terms, accumulating similarities against all C1 documents at
// once.
//
// Memory budget (the paper's formula): after one outer document
// (ceil(S2) pages), the whole C1 B+tree (Bt1 pages, loaded once up front)
// and the non-zero similarity accumulator (4*N1*delta/P pages), the
// remaining buffer caches
//   X = floor((B - ceil(S2) - Bt1 - 4*N1*delta/P) / (J1 + |t#|/P))
// inverted entries. On overflow, the entry whose term has the lowest
// document frequency *in C2* is replaced — it is the least likely to be
// needed again (the paper's policy). With a QueryStatsCollector attached
// the run reports the counters entry_fetches (entries read from disk,
// re-reads included), cache_hits and evictions.
class HvnlJoin : public TextJoinAlgorithm {
 public:
  Algorithm kind() const override { return Algorithm::kHvnl; }

  Result<JoinResult> Run(const JoinContext& ctx,
                         const JoinSpec& spec) const override;

  // The entry-cache capacity (number of inverted entries); negative means
  // the fixed parts alone do not fit.
  static int64_t CacheCapacity(const JoinContext& ctx, const JoinSpec& spec);
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_HVNL_H_

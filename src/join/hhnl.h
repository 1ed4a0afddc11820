#ifndef TEXTJOIN_JOIN_HHNL_H_
#define TEXTJOIN_JOIN_HHNL_H_

#include "join/executor.h"

namespace textjoin {

// Horizontal-Horizontal Nested Loop (Section 4.1): uses only the document
// collections. In forward order, batches of
//   X = floor((B - ceil(S1)) / (S2 + 4*lambda/P))
// outer (C2) documents are held in memory; for each batch the inner
// collection C1 is scanned once and every inner document is scored against
// every batched outer document, updating per-outer-document top-lambda
// heaps. The paper fixes only this I/O schedule. In memory, each loaded
// batch is inverted into a transient term -> (batch position, weight)
// table, and each scanned document scatters its contributions through it
// into a dense per-batch accumulator, so no pair is merged on its own
// (DESIGN.md section 8). Scores stay bit-identical to a per-pair merge.
//
// The backward order the paper mentions (process C1 as the outer loop;
// cheaper when C1 is much smaller than C2) is available as an option: it
// keeps a top-lambda heap for *every* participating C2 document for the
// whole run (the "many intermediate results" the paper notes), batching
//   X' = floor((B - ceil(S2) - 4*lambda*N2'/P) / S1)
// inner documents at a time and scanning C2 once per batch. Both orders
// produce identical results.
class HhnlJoin : public TextJoinAlgorithm {
 public:
  struct Options {
    bool backward = false;
  };

  HhnlJoin() : HhnlJoin(Options{}) {}
  explicit HhnlJoin(Options options) : options_(options) {}

  Algorithm kind() const override { return Algorithm::kHhnl; }

  Result<JoinResult> Run(const JoinContext& ctx,
                         const JoinSpec& spec) const override;

  // The forward-order outer batch size the executor would use; exposed for
  // tests and model validation.
  static int64_t BatchSize(const JoinContext& ctx, const JoinSpec& spec);

 private:
  Result<JoinResult> RunForward(const JoinContext& ctx,
                                const JoinSpec& spec) const;
  Result<JoinResult> RunBackward(const JoinContext& ctx,
                                 const JoinSpec& spec) const;

  Options options_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_HHNL_H_

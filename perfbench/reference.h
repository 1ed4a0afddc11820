// Independent references every timed result is checked against.
//
// The floor join is the speed-of-light row as well as the oracle: a dense
// accumulator over postings the benchmark builds itself from the
// documents, adding contributions u_t * v_t * TermFactor(t) in ascending
// term order per pair, finalizing with SimilarityContext::Finalize and
// keeping the lambda best by BetterMatch. It shares no code with the
// executors beyond those three definitions of the score.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "join/executor.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "text/document.h"

namespace perfbench {

struct FloorTimes {
  double accumulate_s = 0;
  double select_s = 0;
};

class FloorJoin {
 public:
  // Inverts `inner` (C1, indexed by DocId) in memory.
  explicit FloorJoin(const std::vector<textjoin::Document>& inner);

  // Joins the outer documents named by `outer_ids` (ascending; indexes
  // into `outer`) against C1 under `sim`. `times` may be null.
  textjoin::JoinResult Run(const std::vector<textjoin::Document>& outer,
                           const std::vector<textjoin::DocId>& outer_ids,
                           const textjoin::SimilarityContext& sim,
                           int64_t lambda, FloorTimes* times) const;

 private:
  struct Posting {
    textjoin::DocId doc;
    double weight;
  };
  int64_t num_inner_ = 0;
  std::vector<std::vector<Posting>> postings_;  // indexed by term id
};

// Raw-count top-lambda of one query over `docs` (the live documents in
// key order; a match's doc is its position in that order): sum of
// q_t * d_t over shared terms, ties by position. The serving scheduler's
// merged document ids are order-isomorphic to these positions.
std::vector<textjoin::Match> BruteForceTopLambda(
    const std::vector<const textjoin::Document*>& docs,
    const textjoin::Document& query, int64_t lambda);

// The lambda best of `candidates` (scores > 0 only), best first.
std::vector<textjoin::Match> SelectBest(std::vector<textjoin::Match> candidates,
                                        int64_t lambda);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

#ifndef TEXTJOIN_OBS_EXPLAIN_H_
#define TEXTJOIN_OBS_EXPLAIN_H_

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "index/inverted_file.h"
#include "obs/query_stats.h"

namespace textjoin {

// One graceful-degradation step: the algorithm the planner first picked
// hit an unrecoverable I/O failure at run time and the join was
// re-planned with the next-cheapest algorithm whose inputs were readable.
struct FallbackEvent {
  Algorithm failed = Algorithm::kHhnl;
  std::string reason;  // the I/O failure that forced the re-plan
};

// Everything the EXPLAIN ANALYZE renderer needs to know about the chosen
// plan, expressed in cost-layer types only (obs must not depend on the
// planner; JoinPlanner converts its PlanChoice into this mirror).
struct ExplainPlan {
  Algorithm algorithm = Algorithm::kHhnl;
  bool hhnl_backward = false;
  CostComparison costs;            // predicted totals, all three algorithms
  AlgorithmCost hhnl_backward_cost;  // predicted total of the backward order
  CostInputs inputs;               // what the predictions were computed from
  // Posting format of the inner inverted file: the calibrated CPU line
  // charges decoded cells at this format's rate.
  PostingCompression inner_compression = PostingCompression::kNone;
  std::string explanation;         // planner's reasoning, one line per fact
  // Degradation steps that led to `algorithm`, oldest first; empty when
  // the first choice ran to completion.
  std::vector<FallbackEvent> fallbacks;
};

struct ExplainOptions {
  // Wall-clock seconds vary run to run; golden tests turn them off.
  bool include_wall_time = true;
  // Per-phase algorithm-specific counters (batch sizes, cache hits, ...).
  bool include_counters = true;
  // Predicted totals of the algorithms that were NOT chosen.
  bool include_alternatives = true;
};

// Renders the paper-verification table: the chosen plan with the cost
// model's per-phase prediction (sequential and worst-case random
// variants, cost/cost_model.h CostPhases) side by side with the measured
// per-phase cost from `stats`, plus the relative error of the sequential
// prediction. Measured phases the model does not predict (and vice versa)
// render with '-' in the missing columns; I/O the executor performed
// outside any phase shows as "(unattributed)".
std::string RenderExplainAnalyze(const ExplainPlan& plan,
                                 const QueryStats& stats,
                                 const ExplainOptions& options = {});

// Wall time, in ns, the counted work of `cpu` costs at this host's
// calibrated rates (kernel/calibrate.h): merge steps, accumulations, and
// decoded cells at the decode rate of `format`.
double CalibratedCpuNs(const CpuStats& cpu, PostingCompression format);

// The AlgorithmName plus the backward marker, e.g. "HHNL backward".
std::string PlanAlgorithmLabel(Algorithm algorithm, bool hhnl_backward);

}  // namespace textjoin

#endif  // TEXTJOIN_OBS_EXPLAIN_H_

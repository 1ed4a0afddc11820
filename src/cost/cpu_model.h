#ifndef TEXTJOIN_COST_CPU_MODEL_H_
#define TEXTJOIN_COST_CPU_MODEL_H_

#include "cost/cost_model.h"

namespace textjoin {

// Analytic CPU-work model — the Section 7 "further studies" extension
// ("develop cost formulas that include CPU cost"). Estimates the
// operation counts the executors meter in CpuStats (join/cpu_stats.h).
//
// Shared quantities, with m participating outer documents:
//   L1 = K1*N1/T1             average inverted-entry length on C1 (cells)
//   c  = q*K2*K1/T1           expected common terms of a document pair
//
// A useful invariant: the number of similarity *accumulations* is the
// same for all three algorithms —
//   sum over shared terms t of df1(t) * df2(t)  ~=  m * N1 * c
// — they differ in the surrounding work (HHNL walks both documents per
// pair, HVNL/VVM decode inverted cells), which is what makes CPU-aware
// ranking interesting when everything fits in memory.
struct CpuEstimate {
  double cell_compares = 0;
  double accumulations = 0;
  double heap_offers = 0;
  double cells_decoded = 0;
  // HHNL pruning (join/pruning.h): bound evaluations the executor performs
  // (counted work), and pairs it expects to skip (avoided work —
  // informational, not part of Total()).
  double bound_checks = 0;
  double pairs_pruned = 0;

  double Total() const {
    return cell_compares + accumulations + heap_offers + cells_decoded +
           bound_checks;
  }
};

// Expected fraction of candidate pairs the top-lambda bounds prune away.
// Of the ~delta*N1 non-zero candidates per outer document only lambda must
// be evaluated in full; the catalog bounds are loose (max * sum products),
// so the model credits only half of the provably-losing remainder. Clamped
// to [0, 0.9]; 0 when pruning cannot help (lambda >= delta*N1).
double ExpectedPruningRate(const CostInputs& in);

// HHNL's per-pair merge cost is capped by the galloping probe count on
// skewed document lengths (the executors gallop at kGallopSizeRatio).
// When in.pruning_rate > 0 (the planner sets it via ExpectedPruningRate)
// the HHNL estimate discounts the merge, accumulation and heap work by the
// expected pruning rate and charges the bound checks instead. HVNL and
// VVM accumulate every candidate, so their estimates ignore the rate.
CpuEstimate HhnlCpuCost(const CostInputs& in);
CpuEstimate HvnlCpuCost(const CostInputs& in);
CpuEstimate VvmCpuCost(const CostInputs& in);

// Combined cost in sequential-page-read units: I/O cost plus CPU
// operations divided by `ops_per_page_read` (how many counted operations
// take as long as one sequential page read on the target machine).
double CombinedCost(const AlgorithmCost& io, const CpuEstimate& cpu,
                    double ops_per_page_read);

}  // namespace textjoin

#endif  // TEXTJOIN_COST_CPU_MODEL_H_

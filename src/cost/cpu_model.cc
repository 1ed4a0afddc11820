#include "cost/cpu_model.h"

#include <algorithm>
#include <cmath>

namespace textjoin {

namespace {

struct CpuDerived {
  double m;        // participating outer documents
  double N1, K1, T1;
  double K2, T2;
  double L1;       // average entry length on C1, in cells
  double common;   // expected common terms of a pair: q*K2*K1/T1
  double delta;
  double q;
};

CpuDerived Derive(const CostInputs& in) {
  CpuDerived d;
  d.N1 = static_cast<double>(in.c1.num_documents);
  d.K1 = in.c1.avg_terms_per_doc;
  d.T1 = std::max(1.0, static_cast<double>(in.c1.num_distinct_terms));
  d.K2 = in.c2.avg_terms_per_doc;
  d.T2 = std::max(1.0, static_cast<double>(in.c2.num_distinct_terms));
  d.m = in.participating_outer < 0
            ? static_cast<double>(in.c2.num_documents)
            : static_cast<double>(std::min<int64_t>(
                  in.participating_outer, in.c2.num_documents));
  d.L1 = d.K1 * d.N1 / d.T1;
  d.q = in.q;
  // Expected common terms of a pair. Under uniform term usage this is
  // q*K2*K1/T1; skewed document frequencies concentrate pairs on the
  // same head terms, scaling the expectation by ~sqrt(skew1*skew2)
  // (exact when both collections use the ranks in the same order).
  d.common = in.q * d.K2 * d.K1 / d.T1 *
             std::sqrt(in.c1.df_skew * in.c2.df_skew);
  d.delta = in.query.delta;
  return d;
}

}  // namespace

double ExpectedPruningRate(const CostInputs& in) {
  const double candidates =
      std::max(1.0, in.query.delta *
                        static_cast<double>(in.c1.num_documents));
  const double lambda = static_cast<double>(std::max<int64_t>(
      0, in.query.lambda));
  const double losing = std::max(0.0, 1.0 - lambda / candidates);
  return std::min(0.9, 0.5 * losing);
}

CpuEstimate HhnlCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Every pair walks both sorted cell lists: between max(K1,K2) and
  // K1+K2 steps; the expectation is K1 + K2 - common.
  double merge_per_pair = d.K1 + d.K2 - d.common;
  // Skewed lengths switch to galloping: the shorter document's cells each
  // cost one probe step plus ~2*log2(ratio) search probes. Block summaries
  // (in.block_skip, one probe per 64-cell block) prune the search range to
  // roughly one block plus the summary walk, halving the per-cell probe
  // count.
  const double shorter = std::max(1.0, std::min(d.K1, d.K2));
  const double ratio = std::max(d.K1, d.K2) / shorter;
  if (ratio >= 16.0) {
    const double probes = in.block_skip ? std::log2(ratio) + 2.0
                                        : 2.0 * std::log2(ratio) + 2.0;
    merge_per_pair = std::min(merge_per_pair, shorter * probes + d.common);
  }
  const double rate = std::clamp(in.pruning_rate, 0.0, 1.0);
  const double survivors = 1.0 - rate;
  e.cell_compares = d.m * d.N1 * survivors * merge_per_pair;
  e.accumulations = d.m * d.N1 * survivors * d.common;
  // Only non-zero surviving pairs reach the heap.
  e.heap_offers = d.m * d.N1 * d.delta * survivors;
  e.cells_decoded = 0;  // HHNL reads documents, not inverted cells
  if (rate > 0) {
    e.bound_checks = d.m * d.N1;  // one pre-check per pair
    e.pairs_pruned = d.m * d.N1 * rate;
  }
  return e;
}

CpuEstimate HvnlCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Each outer document touches q*K2 entries, whether they come from
  // cache or disk; the cell volume is the same per-pair accumulation
  // count as the other algorithms (m * N1 * common).
  e.accumulations = d.m * d.N1 * d.common;
  // Merge-walk visits: each outer document walks its q*K2 probed entries
  // end to end, L1 cells each.
  e.cell_compares = d.m * d.q * d.K2 * d.L1;
  // Only entries actually fetched from disk are decoded. Reuse the I/O
  // model's casework: fetched entries = needed when they all fit, else
  // the cache fills (X) and every later document reads Y fresh entries.
  const double X = std::max(0.0, HvnlCacheCapacity(in));
  const double needed =
      d.q * (d.m < static_cast<double>(in.c2.num_documents)
                 ? DistinctTermsAfter(d.m, d.K2, in.c2.num_distinct_terms)
                 : d.T2);
  double fetched;
  if (X >= needed) {
    fetched = needed;
  } else {
    auto qf = [&](double mm) {
      return d.q * DistinctTermsAfter(mm, d.K2, in.c2.num_distinct_terms);
    };
    double s = 1;
    while (qf(s) <= X && s < d.m) s += 1;
    const double fs = qf(s), fs1 = qf(s - 1);
    const double X1 = (fs - fs1) > 0 ? (X - fs1) / (fs - fs1) : 0.0;
    const double Y = std::max(qf(s + X1) - X, 0.0);
    fetched = X + std::max(d.m - s - X1 + 1.0, 0.0) * Y;
  }
  e.cells_decoded = fetched * d.L1;
  // Per outer document the accumulator holds ~delta*N1 non-zero scores.
  e.heap_offers = d.m * d.delta * d.N1;
  // Admission suppression: suppressed candidates never accumulate or reach
  // the heap; each probed entry pays one bound check per cell of the outer
  // document (the suffix build) plus one per admission decision.
  const double rate = std::clamp(in.pruning_rate, 0.0, 1.0);
  if (rate > 0) {
    e.accumulations *= 1.0 - rate;
    e.heap_offers *= 1.0 - rate;
    e.bound_checks = d.m * (d.K2 + d.q * d.K2);
    e.pairs_pruned = d.m * d.delta * d.N1 * rate;
    if (in.block_skip) {
      // Once admission closes, block-granular decode touches only blocks
      // holding live accumulator documents; the pruned fraction of each
      // entry's candidates is never decoded or visited by the walk.
      e.cells_decoded *= 1.0 - rate;
      e.cell_compares *= 1.0 - rate;
    }
  }
  return e;
}

CpuEstimate VvmCpuCost(const CostInputs& in) {
  CpuDerived d = Derive(in);
  CpuEstimate e;
  // Same pairwise accumulation volume as the other algorithms.
  e.accumulations = d.m * d.N1 * d.common;
  // Both inverted files are decoded once per pass.
  const double passes =
      static_cast<double>(std::max<int64_t>(1, VvmPasses(in)));
  const double cells1 = d.K1 * d.N1;
  const double cells2 =
      d.K2 * static_cast<double>(in.c2.num_documents);
  e.cells_decoded = passes * (cells1 + cells2);
  // Merge-walk visits: every pass checks all C2 cells against the pass
  // filter, and each participating outer cell walks its shared C1 entry
  // (L1 cells) in the one pass that owns it.
  const double walk_visits = d.m * d.q * d.K2 * d.L1;
  e.cell_compares = passes * cells2 + walk_visits;
  e.heap_offers = d.m * d.delta * d.N1;
  // Admission suppression: the decode volume is fixed by the scans, but
  // suppressed pairs skip their accumulations and heap offers at the cost
  // of one bound check per new-candidate decision.
  const double rate = std::clamp(in.pruning_rate, 0.0, 1.0);
  if (rate > 0) {
    e.accumulations *= 1.0 - rate;
    e.heap_offers *= 1.0 - rate;
    e.bound_checks = d.m * d.delta * d.N1;
    e.pairs_pruned = d.m * d.delta * d.N1 * rate;
    if (in.block_skip) {
      // Pass-slice skipping decodes (and pass-filters) each C2 block only
      // in the pass owning its document span, and closed outer documents
      // walk C1's entry block-wise: the pruned share of C1's cells stays
      // undecoded.
      e.cells_decoded = cells2 + passes * cells1 * (1.0 - rate);
      e.cell_compares = cells2 + walk_visits * (1.0 - rate);
    }
  }
  return e;
}

double CombinedCost(const AlgorithmCost& io, const CpuEstimate& cpu,
                    double ops_per_page_read) {
  if (!io.feasible) return io.seq;  // +inf
  return io.seq + cpu.Total() / ops_per_page_read;
}

}  // namespace textjoin

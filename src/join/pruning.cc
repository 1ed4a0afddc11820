#include "join/pruning.h"

#include <cmath>

#include "kernel/kernels.h"

namespace textjoin {

DocBounds ComputeDocBounds(const Document& doc, const SimilarityContext& ctx,
                           double finalize_norm) {
  DocBounds b;
  double norm_sq = 0;
  for (const DCell& c : doc.cells()) {
    const double wt = static_cast<double>(c.weight) *
                      std::sqrt(ctx.TermFactor(c.term));
    b.max_w = std::max(b.max_w, wt);
    b.sum_w += wt;
    norm_sq += wt * wt;
  }
  b.norm_w = std::sqrt(norm_sq);
  b.inv_norm = finalize_norm > 0 ? 1.0 / finalize_norm : 0.0;
  return b;
}

DocBounds CatalogDocBounds(const DocumentCollection& collection, DocId doc,
                           double finalize_norm) {
  DocBounds b;
  b.max_w = static_cast<double>(collection.max_weight(doc));
  b.sum_w = static_cast<double>(collection.weight_sum(doc));
  b.norm_w = collection.raw_norm(doc);
  b.inv_norm = finalize_norm > 0 ? 1.0 / finalize_norm : 0.0;
  return b;
}

void SuffixBounds::Build(const Document& doc, const SimilarityContext& ctx) {
  const auto& cells = doc.cells();
  const size_t n = cells.size();
  sum_.assign(n + 1, 0.0);
  max_.assign(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    const double wt = static_cast<double>(cells[i].weight) *
                      std::sqrt(ctx.TermFactor(cells[i].term));
    sum_[i] = sum_[i + 1] + wt;
    max_[i] = std::max(max_[i + 1], wt);
  }
}

namespace {

// Remaining contribution of a merge standing at positions (i, j): the
// tighter of the two cross Hoelder products over the unread suffixes.
inline double RemainingBound(const SuffixBounds& b1, size_t i,
                             const SuffixBounds& b2, size_t j) {
  return std::min(b1.suffix_sum(i) * b2.suffix_max(j),
                  b1.suffix_max(i) * b2.suffix_sum(j));
}

}  // namespace

PrunedDotResult WeightedDotPruned(const Document& d1, const Document& d2,
                                  const SimilarityContext& ctx,
                                  const SuffixBounds& b1,
                                  const SuffixBounds& b2, double inv_denom,
                                  DocId doc, const TopKAccumulator& heap) {
  const auto& a = d1.cells();
  const auto& b = d2.cells();
  PrunedDotResult out;
  DotDetail& det = out.detail;
  int64_t next_check = kEarlyExitStride;

  if (UseGalloping(a.size(), b.size())) {
    const bool d1_short = a.size() <= b.size();
    const auto& s = d1_short ? a : b;
    const auto& l = d1_short ? b : a;
    const SuffixBounds& bs = d1_short ? b1 : b2;
    const SuffixBounds& bl = d1_short ? b2 : b1;
    size_t j = 0;
    for (size_t i = 0; i < s.size() && j < l.size(); ++i) {
      if (det.merge_steps >= next_check) {
        next_check = det.merge_steps + kEarlyExitStride;
        ++out.bound_checks;
        const double ub =
            (det.acc + RemainingBound(bs, i, bl, j)) * inv_denom * kBoundSlack;
        if (heap.CannotQualify(doc, ub)) {
          out.pruned = true;
          return out;
        }
      }
      ++det.merge_steps;
      j = GallopLowerBound(l, j, s[i].term, &det.merge_steps);
      if (j >= l.size()) break;
      if (l[j].term == s[i].term) {
        det.acc += static_cast<double>(s[i].weight) *
                   static_cast<double>(l[j].weight) *
                   ctx.TermFactor(s[i].term);
        ++det.common_terms;
        ++j;
      }
    }
    return out;
  }

  // Linear arm, chunked at the bound-check cadence: each merge call's step
  // budget is exactly the distance to the next scheduled check, so bound
  // checks fire at the same logical step, at the same merge positions,
  // with the same accumulator value as one uninterrupted walk.
  const int64_t na = static_cast<int64_t>(a.size());
  const int64_t nb = static_cast<int64_t>(b.size());
  kernel::MergeCursor cur;
  int32_t ma[kEarlyExitStride], mb[kEarlyExitStride];
  while (cur.i < na && cur.j < nb) {
    if (det.merge_steps >= next_check) {
      next_check = det.merge_steps + kEarlyExitStride;
      ++out.bound_checks;
      const double ub =
          (det.acc + RemainingBound(b1, static_cast<size_t>(cur.i), b2,
                                    static_cast<size_t>(cur.j))) *
          inv_denom * kBoundSlack;
      if (heap.CannotQualify(doc, ub)) {
        out.pruned = true;
        return out;
      }
    }
    // Budget never exceeds kEarlyExitStride (next_check is at most that
    // far ahead), so the fixed match arrays above always have room.
    const int64_t budget = next_check - det.merge_steps;
    int64_t nm = 0;
    det.merge_steps += kernel::MergeLinearPortable(a.data(), na, b.data(), nb,
                                                   &cur, budget, ma, mb, &nm);
    for (int64_t m = 0; m < nm; ++m) {
      const DCell& ca = a[static_cast<size_t>(ma[m])];
      const DCell& cb = b[static_cast<size_t>(mb[m])];
      det.acc += static_cast<double>(ca.weight) *
                 static_cast<double>(cb.weight) * ctx.TermFactor(ca.term);
      ++det.common_terms;
    }
  }
  return out;
}

}  // namespace textjoin

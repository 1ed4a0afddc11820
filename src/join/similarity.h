#ifndef TEXTJOIN_JOIN_SIMILARITY_H_
#define TEXTJOIN_JOIN_SIMILARITY_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/collection.h"
#include "text/types.h"

namespace textjoin {

// How similarity between two documents is scored.
//
// The paper's base definition (Section 3) is the raw dot product of
// occurrence counts: sum over common terms of u_i * v_i. It also notes the
// two standard refinements — dividing by the document norms (cosine) and
// weighting terms by inverse document frequency — both of which can be
// folded into the same accumulation loop, so all three executors support
// them identically:
//   contribution(t) = u_t * v_t * idf(t)^2        (accumulated per pair)
//   final           = acc / (norm(d1) * norm(d2)) (if cosine_normalize)
struct SimilarityConfig {
  bool cosine_normalize = false;
  bool use_idf = false;
};

// Per-term idf weights over the union of two collections:
//   idf(t) = ln(1 + (N1 + N2) / (df1(t) + df2(t))).
// Returned object is an unmetered catalog (document frequencies are IR
// system metadata the paper assumes are kept anyway).
class IdfWeights {
 public:
  IdfWeights() = default;
  IdfWeights(const DocumentCollection& c1, const DocumentCollection& c2,
             const SimilarityConfig& config);

  // Weights over explicitly merged statistics instead of two catalogs:
  // `df` maps term -> combined live document frequency and `n_total` is
  // the combined live document count. Dynamic collections use this to
  // score base + delta + deletes with the exact formula above, so scores
  // are bit-identical to a from-scratch rebuild (same df, same N, same
  // expression).
  static IdfWeights FromMergedStats(double n_total,
                                    std::unordered_map<TermId, int64_t> df,
                                    bool enabled);

  // Squared idf of `term` (1.0 when idf weighting is off).
  double Squared(TermId term) const;

  bool enabled() const { return enabled_; }

 private:
  bool enabled_ = false;
  double n_total_ = 0;
  const DocumentCollection* c1_ = nullptr;
  const DocumentCollection* c2_ = nullptr;
  bool use_merged_ = false;
  std::unordered_map<TermId, int64_t> merged_df_;
};

// Precomputed document norms of a collection under `config` (all 1.0 when
// cosine normalization is off). Raw norms come from the collection catalog
// (precomputed at build time, as the paper assumes); idf-weighted norms
// require one setup scan of the collection — callers build the
// SimilarityContext before metering starts.
class DocumentNorms {
 public:
  DocumentNorms() = default;
  static Result<DocumentNorms> Create(const DocumentCollection& collection,
                                      const IdfWeights& idf,
                                      const SimilarityConfig& config);

  // Wraps precomputed per-document norms (dynamic collections extend the
  // base collection's norms with delta-document norms).
  static DocumentNorms FromVector(std::vector<double> norms);

  double of(DocId doc) const {
    return norms_.empty() ? 1.0 : norms_[doc];
  }

  const std::vector<double>& values() const { return norms_; }

 private:
  std::vector<double> norms_;
};

// Everything an executor needs to turn accumulated products into final
// scores. Built once per join, before I/O metering starts; all its lookups
// are unmetered in-memory work.
//
// All three executors accumulate per-pair contributions in ascending term
// order (documents and inverted files are term-sorted), so floating-point
// results are bit-identical across HHNL, HVNL and VVM.
struct SimilarityContext {
  SimilarityConfig config;
  IdfWeights idf;
  DocumentNorms inner_norms;
  DocumentNorms outer_norms;

  // `inner` is C1, `outer` is C2.
  static Result<SimilarityContext> Create(const DocumentCollection& inner,
                                          const DocumentCollection& outer,
                                          const SimilarityConfig& config);

  // Multiplier applied to u_t * v_t when accumulating term t.
  double TermFactor(TermId term) const { return idf.Squared(term); }

  // Final score of an accumulated pair value.
  double Finalize(double acc, DocId inner_doc, DocId outer_doc) const {
    if (!config.cosine_normalize) return acc;
    double denom = inner_norms.of(inner_doc) * outer_norms.of(outer_doc);
    return denom > 0 ? acc / denom : 0.0;
  }
};

// Generalized dot product of two documents under `ctx`'s term weighting
// (contributions accumulated in ascending term order; O(|d1| + |d2|)).
// Cosine normalization is NOT applied here — call ctx.Finalize.
double WeightedDot(const Document& d1, const Document& d2,
                   const SimilarityContext& ctx);

// WeightedDot plus the CPU-work detail the counted executors report: how
// many merge steps the walk took and how many terms the documents share.
// `blocks_skipped` counts d-cell blocks a blocked gallop jumped over
// without probing any cell inside them (0 for the non-blocked kernels).
struct DotDetail {
  double acc = 0;
  int64_t merge_steps = 0;
  int64_t common_terms = 0;
  int64_t blocks_skipped = 0;
};
DotDetail WeightedDotDetailed(const Document& d1, const Document& d2,
                              const SimilarityContext& ctx);

// Length ratio at which WeightedDotKernel switches from the paper's
// two-pointer walk, O(|d1| + |d2|), to galloping — exponential + binary
// search from the shorter document, O(short * log(long)). At 16x the
// expected probe count short*(2*log2(ratio)+2) drops below the linear
// walk's short+long steps.
inline constexpr int64_t kGallopSizeRatio = 16;

// The one length rule every merge applies: gallop when the longer cell
// list is at least kGallopSizeRatio times the (nonempty) shorter one.
inline bool UseGalloping(size_t n1, size_t n2) {
  const size_t shorter = std::min(n1, n2);
  return shorter > 0 &&
         std::max(n1, n2) >= shorter * static_cast<size_t>(kGallopSizeRatio);
}

// Last term of each fixed-size cell block of a document — the d-cell
// mirror of the inverted file's per-block summaries (block size
// kPostingBlockCells). One probe of this array answers "is the target
// past this whole block?", so a blocked gallop jumps block-sized strides
// instead of galloping cell by cell. Built unmetered at setup, like
// SuffixBounds.
class DocBlockIndex {
 public:
  void Build(const Document& doc);

  bool empty() const { return last_.empty(); }
  const std::vector<TermId>& last_terms() const { return last_; }

 private:
  std::vector<TermId> last_;
};

// WeightedDotDetailed with the intersection picked by UseGalloping. Both
// arms visit the common terms in the same ascending order and evaluate
// each contribution with the same expression, so acc and common_terms are
// bit-identical to WeightedDotDetailed's; when it gallops only
// merge_steps (one per cell visited or search probe made) differs. The
// block indexes are optional
// (null = plain galloping); when present they must index the
// corresponding document's cells.
DotDetail WeightedDotKernel(const Document& d1, const Document& d2,
                            const SimilarityContext& ctx,
                            const DocBlockIndex* blocks1 = nullptr,
                            const DocBlockIndex* blocks2 = nullptr);

// Building block of the galloping kernel, shared with the threshold-aware
// merge in join/pruning.h: first index >= lo whose term is >= t, found by
// exponential probing then binary search. Every probe is metered as one
// merge step into *steps.
size_t GallopLowerBound(const std::vector<DCell>& cells, size_t lo, TermId t,
                        int64_t* steps);

// GallopLowerBound with block-boundary probing: identical result, fewer
// probes when the target lies whole blocks ahead (one summary probe rules
// out kPostingBlockCells cells at once). `blocks` must index `cells`.
// Probes — of summaries and of cells — are metered into *steps exactly
// like GallopLowerBound's; blocks jumped over without any cell probe are
// counted into *blocks_skipped (may be null).
size_t GallopLowerBoundBlocked(const std::vector<DCell>& cells,
                               const DocBlockIndex& blocks, size_t lo,
                               TermId t, int64_t* steps,
                               int64_t* blocks_skipped);

}  // namespace textjoin

#endif  // TEXTJOIN_JOIN_SIMILARITY_H_

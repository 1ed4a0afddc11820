#include "join/hhnl.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "obs/query_stats.h"

namespace textjoin {

namespace {

// Transient inverted index of HHNL's resident batch (DESIGN.md section 8).
// Build inverts the batch's cells into CSR runs, one per distinct batch
// term: term t's run is postings_[start_[s], start_[s + 1]) with
// s = slot_[t], one (batch position, weight) per batch document holding t.
// slot_ is indexed by term id and lives as long as the index; it only
// grows (to the largest term any batch held), and each Build resets the
// previous batch's slots and sets its own, so a batch costs O(its cells)
// however large the vocabulary. Score walks one scanned document's
// ascending cells, looks each term up once, and scatters every
// contribution into a dense per-batch accumulator. The arrays are reused
// across batches.
//
// Each pair still adds the contributions (w_inner * w_outer) * factor of
// its common terms in ascending term order onto 0.0 — exactly the sum a
// per-pair merge computes — so scores are bit-identical to WeightedDot.
class BatchIndex {
 public:
  void Build(const std::vector<Document>& batch) {
    for (const TermId t : terms_) slot_[t] = kNoSlot;
    terms_.clear();
    TermId max_term = 0;
    size_t num_cells = 0;
    for (const Document& d : batch) {
      if (d.cells().empty()) continue;
      max_term = std::max(max_term, d.cells().back().term);
      num_cells += d.cells().size();
    }
    // Run bounds, slots and batch positions are 32-bit, and no slot can
    // reach kNoSlot.
    TEXTJOIN_CHECK_LT(std::max(num_cells, batch.size()),
                      size_t{std::numeric_limits<uint32_t>::max()});
    end_term_ = num_cells > 0 ? max_term + 1 : 0;
    if (slot_.size() < end_term_) slot_.resize(end_term_, kNoSlot);
    // Give each distinct term a slot on first sight and count its cells
    // into start_[slot], prefix-sum to run ends, then fill back to front
    // so start_[slot] ends at the run's begin and every run lists batch
    // positions in ascending order.
    start_.clear();
    for (const Document& d : batch) {
      for (const DCell& c : d.cells()) {
        uint32_t& s = slot_[c.term];
        if (s == kNoSlot) {
          s = static_cast<uint32_t>(terms_.size());
          terms_.push_back(c.term);
          start_.push_back(0);
        }
        ++start_[s];
      }
    }
    start_.push_back(0);
    for (size_t s = 1; s < start_.size(); ++s) start_[s] += start_[s - 1];
    postings_.resize(num_cells);
    for (size_t i = batch.size(); i-- > 0;) {
      for (const DCell& c : batch[i].cells()) {
        postings_[--start_[slot_[c.term]]] =
            Posting{static_cast<uint32_t>(i), c.weight};
      }
    }
    acc_.assign(batch.size(), 0.0);
    touched_.clear();
  }

  // Scores `doc` against every batch document and calls offer(i, acc) for
  // each batch position i whose accumulated score is positive. Meters one
  // cell compare per cell of `doc`, one accumulation per scatter add and
  // one heap offer per offered pair.
  template <typename Offer>
  void Score(const Document& doc, const SimilarityContext& sim, CpuStats* cpu,
             Offer&& offer) {
    int64_t adds = 0;
    for (const DCell& c : doc.cells()) {
      // Cells ascend, so nothing past the batch's largest term can match.
      if (c.term >= end_term_) break;
      const uint32_t s = slot_[c.term];
      if (s == kNoSlot) continue;
      const uint32_t begin = start_[s];
      const uint32_t end = start_[s + 1];
      const double w = static_cast<double>(c.weight);
      const double factor = sim.TermFactor(c.term);
      for (uint32_t k = begin; k < end; ++k) {
        const Posting p = postings_[k];
        // An entry still at 0.0 is untouched by this document. (Were an
        // add ever 0.0 the entry could be listed twice; the reset below
        // turns the second visit into a no-op.)
        if (acc_[p.pos] == 0.0) touched_.push_back(p.pos);
        acc_[p.pos] += w * static_cast<double>(p.weight) * factor;
      }
      adds += end - begin;
    }
    int64_t offers = 0;
    for (const uint32_t i : touched_) {
      const double acc = acc_[i];
      acc_[i] = 0.0;
      if (acc <= 0) continue;
      ++offers;
      offer(i, acc);
    }
    touched_.clear();
    if (cpu != nullptr) {
      cpu->cell_compares += static_cast<int64_t>(doc.cells().size());
      cpu->accumulations += adds;
      cpu->heap_offers += offers;
    }
  }

 private:
  struct Posting {
    uint32_t pos;  // position of the document in the batch
    Weight weight;
  };

  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> slot_;    // term id -> run slot, or kNoSlot
  std::vector<TermId> terms_;     // the batch's distinct terms, by slot
  size_t end_term_ = 0;           // 1 + the batch's largest term; 0 if none
  std::vector<uint32_t> start_;   // one entry per slot, plus one
  std::vector<Posting> postings_;
  std::vector<double> acc_;       // one entry per batch document
  std::vector<uint32_t> touched_;
};

}  // namespace

int64_t HhnlJoin::BatchSize(const JoinContext& ctx, const JoinSpec& spec) {
  const double P = static_cast<double>(ctx.sys.page_size);
  // Under a governor memory budget the batch is sized from the capped
  // buffer: a smaller X, more outer batches, identical results.
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double s1 = std::ceil(ctx.inner->avg_doc_size_pages());
  const double s2 = ctx.outer->avg_doc_size_pages();
  const double denom = s2 + 4.0 * static_cast<double>(spec.lambda) / P;
  if (denom <= 0.0) return 0;
  return static_cast<int64_t>(std::floor((B - s1) / denom + 1e-9));
}

Result<JoinResult> HhnlJoin::Run(const JoinContext& ctx,
                                 const JoinSpec& spec) const {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  return options_.backward ? RunBackward(ctx, spec) : RunForward(ctx, spec);
}

Result<JoinResult> HhnlJoin::RunForward(const JoinContext& ctx,
                                        const JoinSpec& spec) const {
  const int64_t X = BatchSize(ctx, spec);
  if (X < 1) {
    return Status::ResourceExhausted(
        "HHNL: buffer cannot hold one outer and one inner document");
  }
  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  const bool random_outer = !spec.outer_subset.empty();
  const SimilarityContext& sim = *ctx.similarity;
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL");
    stats->SetCounter("batch_size_X", X);
  }

  JoinResult result;
  result.reserve(participating.size());

  // Sequential outer scan state (only used when no subset is given). The
  // scanner persists across batches so the outer collection is read once.
  auto outer_scan = ctx.outer->Scan();
  BatchIndex index;

  size_t pos = 0;
  while (pos < participating.size()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL outer batch"));
    const size_t batch_size =
        std::min<size_t>(static_cast<size_t>(X), participating.size() - pos);
    // Bring the next batch of outer documents into memory.
    std::vector<DocId> batch_docs(participating.begin() + pos,
                                  participating.begin() + pos + batch_size);
    std::vector<Document> batch;
    batch.reserve(batch_size);
    {
      PhaseScope read_outer(stats, phase::kReadOuter);
      for (DocId d : batch_docs) {
        if (random_outer) {
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, ctx.outer->ReadDocument(d));
          batch.push_back(std::move(doc));
        } else {
          TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), d);
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, outer_scan.Next());
          batch.push_back(std::move(doc));
        }
      }
    }
    pos += batch_size;
    if (stats != nullptr) stats->AddCounter("outer_batches", 1);

    std::vector<TopKAccumulator> heaps(batch_size,
                                       TopKAccumulator(spec.lambda));
    // Pass over the (participating) inner documents for this batch.
    PhaseScope scan_inner(stats, phase::kScanInner);
    index.Build(batch);
    TEXTJOIN_RETURN_IF_ERROR(ForEachInnerDoc(
        ctx, spec, [&](DocId inner_doc, const Document& d1) {
          index.Score(d1, sim, cpu, [&](uint32_t i, double acc) {
            heaps[i].Add(inner_doc,
                         sim.Finalize(acc, inner_doc, batch_docs[i]));
          });
        }));
    for (size_t i = 0; i < batch_size; ++i) {
      result.push_back(OuterMatches{batch_docs[i], heaps[i].TakeSorted()});
    }
  }
  return result;
}

Result<JoinResult> HhnlJoin::RunBackward(const JoinContext& ctx,
                                         const JoinSpec& spec) const {
  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  const bool random_outer = !spec.outer_subset.empty();
  const double P = static_cast<double>(ctx.sys.page_size);
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double s1 = ctx.inner->avg_doc_size_pages();
  const double s2 = std::ceil(ctx.outer->avg_doc_size_pages());
  const double heap_pages = 4.0 * static_cast<double>(spec.lambda) *
                            static_cast<double>(participating.size()) / P;
  if (s1 <= 0.0) {
    return Status::InvalidArgument("backward HHNL: empty inner documents");
  }
  const int64_t X =
      static_cast<int64_t>(std::floor((B - s2 - heap_pages) / s1 + 1e-9));
  if (X < 1) {
    return Status::ResourceExhausted(
        "HHNL backward: buffer cannot hold intermediate heaps plus one "
        "document of each collection");
  }
  const SimilarityContext& sim = *ctx.similarity;
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HHNL backward");
    stats->SetCounter("batch_size_X", X);
  }

  // One heap per participating outer document, alive for the whole run.
  std::vector<TopKAccumulator> heaps(participating.size(),
                                     TopKAccumulator(spec.lambda));

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  auto inner_scan = ctx.inner->Scan();
  BatchIndex index;
  while (!inner_scan.Done()) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HHNL inner batch"));
    // Load the next batch of (participating) inner documents.
    std::vector<DocId> batch_docs;
    std::vector<Document> batch;
    {
      PhaseScope read_inner(stats, phase::kReadInnerBatch);
      while (!inner_scan.Done() &&
             static_cast<int64_t>(batch.size()) < X) {
        DocId doc = inner_scan.next_doc();
        TEXTJOIN_ASSIGN_OR_RETURN(Document d, inner_scan.Next());
        if (!inner_member.empty() && !inner_member[doc]) continue;
        batch_docs.push_back(doc);
        batch.push_back(std::move(d));
      }
    }
    if (batch.empty()) continue;
    if (stats != nullptr) stats->AddCounter("inner_batches", 1);

    // Pass over the outer documents.
    PhaseScope rescan(stats, phase::kRescanOuter);
    index.Build(batch);
    auto outer_scan = ctx.outer->Scan();
    for (size_t oi = 0; oi < participating.size(); ++oi) {
      DocId outer_doc = participating[oi];
      Document d2;
      if (random_outer) {
        TEXTJOIN_ASSIGN_OR_RETURN(d2, ctx.outer->ReadDocument(outer_doc));
      } else {
        TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), outer_doc);
        TEXTJOIN_ASSIGN_OR_RETURN(d2, outer_scan.Next());
      }
      index.Score(d2, sim, cpu, [&](uint32_t i, double acc) {
        heaps[oi].Add(batch_docs[i],
                      sim.Finalize(acc, batch_docs[i], outer_doc));
      });
    }
  }

  JoinResult result;
  result.reserve(participating.size());
  for (size_t oi = 0; oi < participating.size(); ++oi) {
    result.push_back(OuterMatches{participating[oi], heaps[oi].TakeSorted()});
  }
  return result;
}

}  // namespace textjoin

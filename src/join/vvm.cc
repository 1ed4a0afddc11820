#include "join/vvm.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "kernel/aligned.h"
#include "kernel/dispatch.h"
#include "obs/query_stats.h"

namespace textjoin {

int64_t VvmJoin::Passes(const JoinContext& ctx, const JoinSpec& spec) {
  const double P = static_cast<double>(ctx.sys.page_size);
  // A governor memory budget shrinks the matrix partition M: more, smaller
  // passes over the same data, identical results.
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double M = B - std::ceil(ctx.inner_index->avg_entry_size_pages()) -
                   std::ceil(ctx.outer_index->avg_entry_size_pages());
  if (M <= 0.0) return -1;
  const double m =
      spec.outer_subset.empty()
          ? static_cast<double>(ctx.outer->num_documents())
          : static_cast<double>(spec.outer_subset.size());
  const double SM = 4.0 * spec.delta *
                    static_cast<double>(ctx.inner->num_documents()) * m / P;
  return std::max<int64_t>(1, CeilPages(SM / M));
}

Result<JoinResult> VvmJoin::Run(const JoinContext& ctx,
                                const JoinSpec& spec) const {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  if (ctx.inner_index == nullptr || ctx.outer_index == nullptr) {
    return Status::InvalidArgument(
        "VVM needs the inverted files on both collections");
  }
  int64_t passes = Passes(ctx, spec);
  if (passes < 0) {
    return Status::ResourceExhausted(
        "VVM: buffer cannot hold two inverted entries");
  }

  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  // No point in more passes than participating documents.
  passes = std::min<int64_t>(
      passes, std::max<int64_t>(1, static_cast<int64_t>(participating.size())));
  // Map every outer document to its subcollection (pass index), -1 if it
  // does not participate. Subcollections are contiguous equal-count slices
  // of the participating documents.
  std::vector<int32_t> pass_of(
      static_cast<size_t>(ctx.outer->num_documents()), -1);
  const int64_t per_pass =
      CeilDiv(static_cast<int64_t>(participating.size()),
              std::max<int64_t>(passes, 1));
  for (size_t i = 0; i < participating.size(); ++i) {
    pass_of[participating[i]] =
        per_pass == 0 ? 0 : static_cast<int32_t>(i / per_pass);
  }

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("VVM");
    stats->SetCounter("passes", passes);
  }

  JoinResult result;
  result.reserve(participating.size());
  // This pass's slice of the matrix SM: one score per non-zero (outer,
  // inner) pair of the pass's subcollection, as the paper describes. Keys
  // pack the pair into 64 bits, outer in the high word and inner in the
  // low word (document numbers are 3 bytes, so this is lossless).
  std::unordered_map<uint64_t, double> acc;
  // Per-cell contributions of one C1 entry against one outer cell, from
  // the dispatched scoring kernel. Sized once to the largest C1 entry so
  // the merge's accumulation loop never reallocates.
  kernel::DoubleBuffer contribs;
  {
    int64_t max_cells = 0;
    for (const auto& e : ctx.inner_index->entries()) {
      max_cells = std::max(max_cells, e.cell_count);
    }
    contribs.resize(static_cast<size_t>(max_cells));
  }

  for (int64_t pass = 0; pass < passes; ++pass) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM merge pass"));
    acc.clear();

    PhaseScope merge(stats, phase::kMergeScan);
    // Parallel scan of both inverted files, merging on term number.
    auto scan1 = ctx.inner_index->Scan();
    auto scan2 = ctx.outer_index->Scan();
    while (!scan1.Done() && !scan2.Done()) {
      TermId t1 = scan1.NextTerm();
      TermId t2 = scan2.NextTerm();
      if (t1 < t2) {
        if (cpu != nullptr) cpu->cells_decoded += scan1.NextCellCount();
        TEXTJOIN_RETURN_IF_ERROR(scan1.SkipEntry());
        continue;
      }
      if (t2 < t1) {
        if (cpu != nullptr) cpu->cells_decoded += scan2.NextCellCount();
        TEXTJOIN_RETURN_IF_ERROR(scan2.SkipEntry());
        continue;
      }
      TEXTJOIN_ASSIGN_OR_RETURN(std::vector<ICell> e1, scan1.Next());
      TEXTJOIN_ASSIGN_OR_RETURN(std::vector<ICell> e2, scan2.Next());
      if (cpu != nullptr) {
        cpu->cells_decoded += static_cast<int64_t>(e1.size() + e2.size());
        // Every C2 cell is visited for the pass-membership check.
        cpu->cell_compares += static_cast<int64_t>(e2.size());
      }
      const double factor = ctx.similarity->TermFactor(t1);
      const int64_t n1 = static_cast<int64_t>(e1.size());
      for (const ICell& oc : e2) {
        if (pass_of[oc.doc] != pass) continue;
        const double w2 = static_cast<double>(oc.weight);
        const uint64_t base = static_cast<uint64_t>(oc.doc) << 32;
        if (cpu != nullptr) {
          cpu->accumulations += n1;
          cpu->cell_compares += n1;
        }
        // Vectorized contributions, sequential in-document-order scatter
        // — bit-identical to the scalar accumulation loop.
        kernel::Active().scale_cells(e1.data(), n1, w2, factor,
                                     contribs.data());
        for (int64_t k = 0; k < n1; ++k) {
          const ICell& icell = e1[static_cast<size_t>(k)];
          if (!inner_member.empty() && !inner_member[icell.doc]) continue;
          acc[base | icell.doc] += contribs[static_cast<size_t>(k)];
        }
      }
    }
    // The scan's one-pass property covers the whole file: drain whichever
    // side is left so the measured I/O equals I1 + I2 per pass, as the
    // cost model assumes.
    while (!scan1.Done()) {
      if (cpu != nullptr) cpu->cells_decoded += scan1.NextCellCount();
      TEXTJOIN_RETURN_IF_ERROR(scan1.SkipEntry());
    }
    while (!scan2.Done()) {
      if (cpu != nullptr) cpu->cells_decoded += scan2.NextCellCount();
      TEXTJOIN_RETURN_IF_ERROR(scan2.SkipEntry());
    }

    // Emit results for this pass's subcollection, ascending by document.
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM matrix partition"));
    const size_t lo = static_cast<size_t>(pass * per_pass);
    const size_t hi = std::min(participating.size(),
                               static_cast<size_t>((pass + 1) * per_pass));
    std::unordered_map<DocId, TopKAccumulator> heaps;
    for (size_t i = lo; i < hi; ++i) {
      heaps.emplace(participating[i], TopKAccumulator(spec.lambda));
    }
    if (cpu != nullptr) {
      cpu->heap_offers += static_cast<int64_t>(acc.size());
    }
    for (const auto& [key, a] : acc) {
      DocId outer_doc = static_cast<DocId>(key >> 32);
      DocId inner_doc = static_cast<DocId>(key & 0xFFFFFFFFu);
      heaps.at(outer_doc).Add(
          inner_doc, ctx.similarity->Finalize(a, inner_doc, outer_doc));
    }
    for (size_t i = lo; i < hi; ++i) {
      result.push_back(OuterMatches{participating[i],
                                    heaps.at(participating[i]).TakeSorted()});
    }
  }
  return result;
}

}  // namespace textjoin

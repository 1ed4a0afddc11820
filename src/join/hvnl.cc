#include "join/hvnl.h"

#include <algorithm>
#include <cmath>
#include <list>
#include <set>
#include <unordered_map>

#include "common/logging.h"
#include "cost/cost_model.h"
#include "kernel/aligned.h"
#include "kernel/dispatch.h"
#include "obs/query_stats.h"

namespace textjoin {

namespace {

// An inverted entry held as its raw encoded bytes until an outer document
// first walks it. A case-1 scan caches the whole file this way, so only the
// entries some outer document probes are ever decoded (and metered as
// decoded cells).
class LazyEntry {
 public:
  LazyEntry(int64_t cell_count, PostingCompression compression,
            std::vector<uint8_t> raw)
      : cell_count_(cell_count), compression_(compression),
        raw_(std::move(raw)) {}

  // The entry's cells, decoded on the first call. `newly_decoded` receives
  // the number of cells this call decoded (0 on a repeat visit).
  Result<const std::vector<ICell>*> Cells(int64_t* newly_decoded) {
    *newly_decoded = 0;
    if (!decoded_) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          cells_, DecodePostings(raw_.data(),
                                 static_cast<int64_t>(raw_.size()),
                                 cell_count_, compression_));
      std::vector<uint8_t>().swap(raw_);
      decoded_ = true;
      *newly_decoded = cell_count_;
    }
    return &cells_;
  }

 private:
  int64_t cell_count_;
  PostingCompression compression_;
  std::vector<uint8_t> raw_;
  std::vector<ICell> cells_;
  bool decoded_ = false;
};

// Cache of inverted file entries with pluggable replacement.
class EntryCache {
 public:
  EntryCache(int64_t capacity, HvnlJoin::Replacement policy,
             const DocumentCollection* outer)
      : capacity_(capacity), policy_(policy), outer_(outer) {}

  bool Contains(TermId term) const { return entries_.count(term) > 0; }

  LazyEntry* Get(TermId term) {
    auto it = entries_.find(term);
    if (it == entries_.end()) return nullptr;
    if (policy_ == HvnlJoin::Replacement::kLru) {
      lru_.erase(it->second.lru_pos);
      lru_.push_front(term);
      it->second.lru_pos = lru_.begin();
    }
    return &it->second.entry;
  }

  // Inserts `entry`; evicts per policy when over capacity (possibly the
  // incoming entry itself, which has already been consumed by the caller).
  // Returns the number of evictions performed.
  int64_t Put(TermId term, LazyEntry entry) {
    if (capacity_ <= 0) return 0;
    Slot slot{std::move(entry), {}};
    if (policy_ == HvnlJoin::Replacement::kLru) {
      lru_.push_front(term);
      slot.lru_pos = lru_.begin();
    } else {
      by_df_.insert({outer_->DocumentFrequency(term), term});
    }
    entries_.emplace(term, std::move(slot));
    int64_t evictions = 0;
    while (static_cast<int64_t>(entries_.size()) > capacity_) {
      EvictOne();
      ++evictions;
    }
    return evictions;
  }

 private:
  struct Slot {
    LazyEntry entry;
    std::list<TermId>::iterator lru_pos;
  };

  void EvictOne() {
    TermId victim;
    if (policy_ == HvnlJoin::Replacement::kLru) {
      victim = lru_.back();
      lru_.pop_back();
    } else {
      auto it = by_df_.begin();  // lowest outer document frequency
      victim = it->second;
      by_df_.erase(it);
    }
    entries_.erase(victim);
  }

  int64_t capacity_;
  HvnlJoin::Replacement policy_;
  const DocumentCollection* outer_;
  std::unordered_map<TermId, Slot> entries_;
  std::list<TermId> lru_;                       // front = most recent
  std::set<std::pair<int64_t, TermId>> by_df_;  // (df in C2, term)
};

}  // namespace

int64_t HvnlJoin::CacheCapacity(const JoinContext& ctx,
                                const JoinSpec& spec) {
  const double P = static_cast<double>(ctx.sys.page_size);
  // A governor memory budget shrinks the entry cache: more entry
  // re-fetches, identical results.
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double s2 = std::ceil(ctx.outer->avg_doc_size_pages());
  const double bt1 =
      static_cast<double>(ctx.inner_index->btree().size_in_pages());
  const double accum = 4.0 *
                       static_cast<double>(ctx.inner->num_documents()) *
                       spec.delta / P;
  const double j1 = ctx.inner_index->avg_entry_size_pages();
  const double per_entry = j1 + 3.0 / P;
  if (per_entry <= 0.0) return 0;
  return static_cast<int64_t>(
      std::floor((B - s2 - bt1 - accum) / per_entry + 1e-9));
}

Result<JoinResult> HvnlJoin::Run(const JoinContext& ctx,
                                 const JoinSpec& spec) {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  if (ctx.inner_index == nullptr) {
    return Status::InvalidArgument("HVNL needs the inverted file on C1");
  }
  run_stats_ = RunStats();
  const int64_t X = CacheCapacity(ctx, spec);
  if (X < 0) {
    return Status::ResourceExhausted(
        "HVNL: buffer cannot hold the B+tree, the accumulator and one "
        "outer document");
  }
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("HVNL");
    stats->SetCounter("cache_capacity_X", X);
  }
  int64_t directory_probes = 0;

  // One-time cost: read the whole B+tree into memory (Bt1 pages). An
  // early error return may leave the phase open; Finish() closes it.
  if (stats != nullptr) stats->BeginPhase(phase::kLoadBtree);
  TEXTJOIN_ASSIGN_OR_RETURN(auto btree_cells,
                            ctx.inner_index->btree().LoadAllCells());
  if (stats != nullptr) stats->EndPhase();
  ResidentTermDirectory directory(std::move(btree_cells),
                                  ctx.inner_index->size_in_bytes());

  EntryCache cache(X, options_.replacement, ctx.outer);
  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  const auto& index_entries = ctx.inner_index->entries();
  const PostingCompression compression = ctx.inner_index->compression();

  // Case-1 choice (Section 5.2): when the cache can hold the entire
  // inverted file on C1, either scan it in sequentially or fetch only the
  // needed entries with positioned reads — whichever is estimated cheaper.
  if (X >= ctx.inner_index->num_terms()) {
    int64_t shared = 0;
    for (const auto& [term, df] : ctx.outer->doc_freq_map()) {
      if (ctx.inner_index->FindEntry(term) >= 0) ++shared;
    }
    double needed = static_cast<double>(shared);
    if (!spec.outer_subset.empty()) {
      // Only the participating documents' terms are needed; scale the
      // shared-term count by the distinct-term growth curve f(m)/T2.
      needed *= DistinctTermsAfter(
                    static_cast<double>(spec.outer_subset.size()),
                    ctx.outer->avg_terms_per_doc(),
                    ctx.outer->num_distinct_terms()) /
                static_cast<double>(ctx.outer->num_distinct_terms());
    }
    const double fetch_cost =
        needed *
        std::max(1.0, std::ceil(ctx.inner_index->avg_entry_size_pages())) *
        ctx.sys.alpha;
    const double scan_cost =
        static_cast<double>(ctx.inner_index->size_in_pages());
    if (scan_cost < fetch_cost) {
      PhaseScope probe(stats, phase::kProbeEntries);
      auto scan = ctx.inner_index->Scan();
      while (!scan.Done()) {
        TermId term = scan.NextTerm();
        const InvertedFile::EntryMeta* meta = &scan.NextMeta();
        TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, scan.NextRaw());
        cache.Put(term, LazyEntry(meta->cell_count, compression,
                                  std::move(raw)));
      }
    }
  }
  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  const bool random_outer = !spec.outer_subset.empty();

  // Per-cell contributions (w1 * w2) * factor of one posting run, computed
  // by the dispatched scoring kernel. Sized once to the largest inner
  // entry, so the accumulation hot loop never reallocates.
  kernel::DoubleBuffer contrib;
  {
    int64_t max_cells = 0;
    for (const auto& e : index_entries) {
      max_cells = std::max(max_cells, e.cell_count);
    }
    contrib.resize(static_cast<size_t>(max_cells));
  }

  // Greedy ordering (Section 4.2's alternative): learn each outer
  // document's C1-relevant terms in one metered pass, then process the
  // documents in most-cache-overlap-first order with positioned reads.
  const bool greedy = options_.order == OuterOrder::kGreedyIntersection;
  std::vector<std::vector<TermId>> doc_terms;
  if (greedy) {
    PhaseScope learn(stats, "learn outer term lists");
    doc_terms.resize(participating.size());
    if (random_outer) {
      for (size_t i = 0; i < participating.size(); ++i) {
        TEXTJOIN_ASSIGN_OR_RETURN(
            Document d, ctx.outer->ReadDocument(participating[i]));
        doc_terms[i].reserve(d.cells().size());
        for (const DCell& c : d.cells()) {
          if (directory.Lookup(c.term).has_value()) {
            doc_terms[i].push_back(c.term);
          }
        }
      }
    } else {
      auto scan = ctx.outer->Scan();
      size_t i = 0;
      while (!scan.Done()) {
        TEXTJOIN_ASSIGN_OR_RETURN(Document d, scan.Next());
        doc_terms[i].reserve(d.cells().size());
        for (const DCell& c : d.cells()) {
          if (directory.Lookup(c.term).has_value()) {
            doc_terms[i].push_back(c.term);
          }
        }
        ++i;
      }
    }
  }

  JoinResult result;
  result.reserve(participating.size());
  auto outer_scan = ctx.outer->Scan();
  std::unordered_map<DocId, double> acc;
  acc.reserve(static_cast<size_t>(
                  spec.delta *
                  static_cast<double>(ctx.inner->num_documents())) +
              16);
  TopKAccumulator heap(spec.lambda);  // reused across outer documents
  std::vector<char> processed(participating.size(), 0);

  for (size_t step = 0; step < participating.size(); ++step) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HVNL outer document"));
    size_t pick = step;
    Document d2;
    if (stats != nullptr) stats->BeginPhase(phase::kReadOuter);
    if (greedy) {
      // The unprocessed document whose needed entries are already cached
      // the most (first index wins ties, so storage order is the
      // fallback when the cache offers no signal).
      int64_t best = -1;
      for (size_t i = 0; i < participating.size(); ++i) {
        if (processed[i]) continue;
        int64_t overlap = 0;
        for (TermId t : doc_terms[i]) {
          if (cache.Contains(t)) ++overlap;
        }
        if (overlap > best) {
          best = overlap;
          pick = i;
        }
      }
      processed[pick] = 1;
      TEXTJOIN_ASSIGN_OR_RETURN(
          d2, ctx.outer->ReadDocument(participating[pick]));
    } else if (random_outer) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          d2, ctx.outer->ReadDocument(participating[pick]));
    } else {
      TEXTJOIN_CHECK_EQ(outer_scan.next_doc(), participating[pick]);
      TEXTJOIN_ASSIGN_OR_RETURN(d2, outer_scan.Next());
    }
    if (stats != nullptr) stats->EndPhase();
    const DocId outer_doc = participating[pick];

    acc.clear();

    PhaseScope probe(stats, phase::kProbeEntries);
    for (const DCell& c : d2.cells()) {
      ++directory_probes;
      if (!directory.Lookup(c.term).has_value()) continue;  // not in C1
      // Accumulate (w1 * w2) * factor in exactly the same evaluation order
      // as WeightedDot, so all algorithms produce bit-identical scores.
      const double factor = ctx.similarity->TermFactor(c.term);
      const double w2 = static_cast<double>(c.weight);

      // Every cell of the entry accumulates: the paper's HVNL keeps a
      // score for each non-zero pair, budgeted by delta.
      auto walk = [&](LazyEntry& entry) -> Status {
        int64_t newly = 0;
        TEXTJOIN_ASSIGN_OR_RETURN(const std::vector<ICell>* cells,
                                  entry.Cells(&newly));
        const int64_t n = static_cast<int64_t>(cells->size());
        if (cpu != nullptr) {
          cpu->cells_decoded += newly;
          cpu->accumulations += n;
          // The entry walk visits every cell.
          cpu->cell_compares += n;
        }
        // Contributions come from the vectorized scoring kernel; the
        // scatter into the accumulator stays sequential and in document
        // order, so scores are bit-identical to the scalar loop.
        kernel::Active().scale_cells(cells->data(), n, w2, factor,
                                     contrib.data());
        for (int64_t k = 0; k < n; ++k) {
          const ICell& ic = (*cells)[static_cast<size_t>(k)];
          if (!inner_member.empty() && !inner_member[ic.doc]) continue;
          acc[ic.doc] += contrib[static_cast<size_t>(k)];
        }
        return Status::OK();
      };

      LazyEntry* cached = cache.Get(c.term);
      if (cached != nullptr) {
        ++run_stats_.cache_hits;
        TEXTJOIN_RETURN_IF_ERROR(walk(*cached));
      } else {
        TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "HVNL cache fill"));
        const int64_t ei = ctx.inner_index->FindEntry(c.term);
        TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                                  ctx.inner_index->FetchEntryRaw(c.term));
        ++run_stats_.entry_fetches;
        LazyEntry fetched(index_entries[static_cast<size_t>(ei)].cell_count,
                          compression, std::move(raw));
        TEXTJOIN_RETURN_IF_ERROR(walk(fetched));
        run_stats_.evictions += cache.Put(c.term, std::move(fetched));
      }
    }

    if (cpu != nullptr) {
      cpu->heap_offers += static_cast<int64_t>(acc.size());
    }
    for (const auto& [inner_doc, a] : acc) {
      heap.Add(inner_doc, ctx.similarity->Finalize(a, inner_doc, outer_doc));
    }
    result.push_back(OuterMatches{outer_doc, heap.TakeSorted()});
  }
  if (greedy) {
    // Restore the canonical ascending-outer-document result order.
    std::sort(result.begin(), result.end(),
              [](const OuterMatches& a, const OuterMatches& b) {
                return a.outer_doc < b.outer_doc;
              });
  }
  if (stats != nullptr) {
    stats->SetCounter("directory_probes", directory_probes);
    stats->SetCounter("entry_fetches", run_stats_.entry_fetches);
    stats->SetCounter("cache_hits", run_stats_.cache_hits);
    stats->SetCounter("evictions", run_stats_.evictions);
  }
  return result;
}

}  // namespace textjoin

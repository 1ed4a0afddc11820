// Ablation A1 (ours): the outer document order of HVNL (Section 4.2).
// The paper observes that when close documents in storage order share
// many terms ("the documents ... are clustered"), cached entries are
// reused more and fewer re-reads happen. We build a clustered outer
// collection (documents grouped by topic, each topic using its own slice
// of the vocabulary) and a shuffled copy of the same documents, and
// compare entry fetches. The replacement-policy (LRU) and greedy
// cache-overlap order ablations were measured and removed; EXPERIMENTS.md
// A1 keeps their last rows.

#include <cstdio>

#include "storage/disk_manager.h"
#include "common/logging.h"
#include "common/random.h"
#include "index/inverted_file.h"
#include "join/hvnl.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;

// Builds a topical outer collection: `topics` groups of `per_topic`
// documents, each group drawing from its own vocabulary slice (plus a
// small shared slice). If `shuffled`, the same documents are written in
// random order instead of topic order.
DocumentCollection BuildTopical(SimulatedDisk* disk, const std::string& name,
                                int64_t topics, int64_t per_topic,
                                int64_t slice, int64_t terms_per_doc,
                                bool shuffled, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<DCell>> docs;
  for (int64_t t = 0; t < topics; ++t) {
    for (int64_t d = 0; d < per_topic; ++d) {
      std::vector<char> used(static_cast<size_t>(slice), 0);
      std::vector<DCell> cells;
      while (static_cast<int64_t>(cells.size()) < terms_per_doc) {
        TermId local =
            static_cast<TermId>(rng.NextBounded(static_cast<uint64_t>(slice)));
        if (used[local]) continue;
        used[local] = 1;
        cells.push_back(DCell{static_cast<TermId>(t * slice + local),
                              static_cast<Weight>(1 + rng.NextBounded(3))});
      }
      std::sort(cells.begin(), cells.end(),
                [](const DCell& a, const DCell& b) { return a.term < b.term; });
      docs.push_back(std::move(cells));
    }
  }
  if (shuffled) rng.Shuffle(&docs);
  CollectionBuilder builder(disk, name);
  for (auto& cells : docs) {
    TEXTJOIN_CHECK_OK(
        builder.AddDocument(Document::FromSortedCells(cells)).status());
  }
  auto col = builder.Finish();
  TEXTJOIN_CHECK_OK(col.status());
  return std::move(col).value();
}

struct RunOutcome {
  int64_t fetches;
  double cost;
};

RunOutcome RunOnce(SimulatedDisk* disk, const DocumentCollection& inner,
                   const InvertedFile& index, const DocumentCollection& outer,
                   const SimilarityContext& simctx, int64_t buffer) {
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &index;
  ctx.similarity = &simctx;
  ctx.sys = SystemParams{buffer, kPage, 5.0};
  JoinSpec spec;
  spec.lambda = 5;
  disk->ResetStats();
  disk->ResetHeads();
  QueryStatsCollector stats(disk);
  ctx.stats = &stats;
  TEXTJOIN_CHECK_OK(HvnlJoin().Run(ctx, spec).status());
  return RunOutcome{stats.Finish().root.Counter("entry_fetches"),
                    disk->stats().Cost(5.0)};
}

void ClusteringAblation() {
  std::printf(
      "\n-- (b) clustered vs shuffled outer storage order (same "
      "documents) --\n");
  SimulatedDisk disk(kPage);
  // Inner collection covering all topic slices.
  SyntheticSpec s1{800, 12.0, 8 * 120, 0.5, 0, 43};
  auto c1 = GenerateCollection(&disk, "clu.c1", s1);
  TEXTJOIN_CHECK_OK(c1.status());
  auto i1 = InvertedFile::Build(&disk, "clu.i1", *c1);
  TEXTJOIN_CHECK_OK(i1.status());

  auto clustered = BuildTopical(&disk, "clu.sorted", 8, 40, 120, 10,
                                /*shuffled=*/false, 44);
  auto shuffled = BuildTopical(&disk, "clu.shuffled", 8, 40, 120, 10,
                               /*shuffled=*/true, 44);

  auto ctx1 = SimilarityContext::Create(*c1, clustered, {});
  auto ctx2 = SimilarityContext::Create(*c1, shuffled, {});
  TEXTJOIN_CHECK_OK(ctx1.status());
  TEXTJOIN_CHECK_OK(ctx2.status());

  std::printf("%-10s %18s %18s %18s %18s\n", "B(pages)", "fetches(clust.)",
              "fetches(shuf.)", "cost(clust.)", "cost(shuf.)");
  for (int64_t buffer : {12, 16, 24, 40, 80}) {
    JoinContext probe;
    probe.inner = &c1.value();
    probe.outer = &clustered;
    probe.inner_index = &i1.value();
    probe.sys = SystemParams{buffer, kPage, 5.0};
    JoinSpec spec;
    spec.lambda = 5;
    if (HvnlJoin::CacheCapacity(probe, spec) < 0) continue;
    RunOutcome clu = RunOnce(&disk, *c1, *i1, clustered, *ctx1, buffer);
    RunOutcome shu = RunOnce(&disk, *c1, *i1, shuffled, *ctx2, buffer);
    std::printf("%-10lld %18lld %18lld %18.0f %18.0f\n",
                static_cast<long long>(buffer),
                static_cast<long long>(clu.fetches),
                static_cast<long long>(shu.fetches), clu.cost, shu.cost);
  }
}

}  // namespace
}  // namespace textjoin

int main() {
  std::printf("== A1: HVNL outer storage order (Section 4.2) ==\n");
  textjoin::ClusteringAblation();
  return 0;
}

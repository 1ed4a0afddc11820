// Impact of clusters on HVNL (Section 7 further-work item 1, quantifying
// the Section 4.2 observation): take a topically mixed outer collection
// stored in arrival (shuffled) order, reorder it with leader clustering,
// and compare HVNL entry fetches and I/O cost under the same buffer
// budgets. The result sets are identical up to the document renumbering.

#include <cstdio>

#include "storage/disk_manager.h"
#include "cluster/leader_clustering.h"
#include "common/logging.h"
#include "common/random.h"
#include "index/inverted_file.h"
#include "join/hvnl.h"
#include "obs/query_stats.h"
#include "sim/synthetic.h"

namespace textjoin {
namespace {

constexpr int64_t kPage = 512;

// A topical corpus written in shuffled order: `topics` groups, each
// drawing from its own vocabulary slice.
DocumentCollection BuildShuffledTopical(SimulatedDisk* disk,
                                        const std::string& name,
                                        int64_t topics, int64_t per_topic,
                                        int64_t slice,
                                        int64_t terms_per_doc,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<DCell>> docs;
  for (int64_t t = 0; t < topics; ++t) {
    for (int64_t d = 0; d < per_topic; ++d) {
      std::vector<char> used(static_cast<size_t>(slice), 0);
      std::vector<DCell> cells;
      while (static_cast<int64_t>(cells.size()) < terms_per_doc) {
        TermId local = static_cast<TermId>(
            rng.NextBounded(static_cast<uint64_t>(slice)));
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
  rng.Shuffle(&docs);
  CollectionBuilder builder(disk, name);
  for (auto& cells : docs) {
    TEXTJOIN_CHECK_OK(
        builder.AddDocument(Document::FromSortedCells(cells)).status());
  }
  auto col = builder.Finish();
  TEXTJOIN_CHECK_OK(col.status());
  return std::move(col).value();
}

struct Run {
  int64_t fetches;
  double cost;
};

Run RunHvnl(SimulatedDisk* disk, const DocumentCollection& inner,
            const InvertedFile& index, const DocumentCollection& outer,
            int64_t buffer) {
  auto simctx = SimilarityContext::Create(inner, outer, {});
  TEXTJOIN_CHECK_OK(simctx.status());
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &index;
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{buffer, kPage, 5.0};
  JoinSpec spec;
  spec.lambda = 5;
  disk->ResetStats();
  disk->ResetHeads();
  QueryStatsCollector stats(disk);
  ctx.stats = &stats;
  TEXTJOIN_CHECK_OK(HvnlJoin().Run(ctx, spec).status());
  return Run{stats.Finish().root.Counter("entry_fetches"),
             disk->stats().Cost(5.0)};
}

}  // namespace
}  // namespace textjoin

int main() {
  using namespace textjoin;
  std::printf(
      "== Leader clustering as a physical design for HVNL ==\n"
      "Outer collection: 8 topics x 50 documents, written in shuffled "
      "order;\nclustered variant produced by ClusterCollection + "
      "ReorderByCluster.\n");

  SimulatedDisk disk(kPage);
  SyntheticSpec s1{900, 12.0, 8 * 40, 0.5, 0, 51};
  auto inner = GenerateCollection(&disk, "clu.inner", s1);
  TEXTJOIN_CHECK_OK(inner.status());
  auto index = InvertedFile::Build(&disk, "clu.inner.inv", *inner);
  TEXTJOIN_CHECK_OK(index.status());

  auto shuffled =
      BuildShuffledTopical(&disk, "clu.shuffled", 8, 50, 40, 10, 52);
  auto clustering = ClusterCollection(shuffled, ClusteringOptions{0.12, 0});
  TEXTJOIN_CHECK_OK(clustering.status());
  auto reordered =
      ReorderByCluster(&disk, "clu.ordered", shuffled, *clustering);
  TEXTJOIN_CHECK_OK(reordered.status());
  std::printf("leader clustering found %lld clusters over %lld documents\n",
              static_cast<long long>(clustering->num_clusters),
              static_cast<long long>(shuffled.num_documents()));

  std::printf("\n%-10s %18s %18s %14s %14s\n", "B(pages)",
              "fetches(shuffled)", "fetches(clustered)", "cost(shuf)",
              "cost(clust)");
  for (int64_t buffer : {24, 28, 36, 52, 90}) {
    Run shuf = RunHvnl(&disk, *inner, *index, shuffled, buffer);
    Run clus = RunHvnl(&disk, *inner, *index, reordered->collection, buffer);
    std::printf("%-10lld %18lld %18lld %14.0f %14.0f\n",
                static_cast<long long>(buffer),
                static_cast<long long>(shuf.fetches),
                static_cast<long long>(clus.fetches), shuf.cost, clus.cost);
  }
  return 0;
}

// Reviewer assignment — the Dumais & Nielsen scenario the paper cites as
// prior work ([3], Section 1): match each submitted manuscript abstract
// with the profiles of potential reviewers. The join is
//
//   ReviewerProfile SIMILAR_TO(lambda) Abstract
//
// i.e. for every submission (outer), find the lambda reviewers (inner)
// whose profiles are most similar. Tf-idf weighting with cosine
// normalization keeps ubiquitous words from dominating the match.
//
// We run the join once with HVNL explicitly — the natural choice here,
// because the batch of submissions is small relative to the reviewer
// pool — and compare the planner's pick.

#include <cstdio>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "common/logging.h"
#include "index/inverted_file.h"
#include "join/hvnl.h"
#include "obs/query_stats.h"
#include "planner/planner.h"
#include "text/tokenizer.h"

using namespace textjoin;

namespace {

const char* kReviewers[] = {
    "query optimization cost models join ordering cardinality estimation",
    "information retrieval inverted index ranking text search relevance",
    "distributed transactions consensus replication fault tolerance",
    "machine learning for systems learned indexes workload forecasting",
    "storage engines log structured merge trees flash ssd caching",
    "data integration schema matching entity resolution multidatabase",
    "stream processing windows out of order event time watermarks",
    "graph databases traversal reachability shortest path indexing",
    "privacy differential privacy data anonymization secure queries",
    "hardware acceleration gpu fpga simd vectorized execution",
};

const char* kReviewerNames[] = {
    "Prof. Selinger", "Prof. Salton",  "Prof. Lamport", "Prof. Dean",
    "Prof. O'Neil",   "Prof. Wiederhold", "Prof. Zaharia", "Prof. Tarjan",
    "Prof. Dwork",    "Prof. Patterson",
};

const char* kSubmissions[] = {
    "a learned cost model for join ordering using workload forecasting",
    "compressing inverted indexes for faster text ranking",
    "entity resolution across autonomous databases with schema matching",
};

}  // namespace

int main() {
  SimulatedDisk disk(4096);
  Vocabulary vocab;
  Tokenizer tokenizer;

  CollectionBuilder profiles_builder(&disk, "reviewer_profiles");
  for (const char* text : kReviewers) {
    auto doc = tokenizer.MakeDocument(text, &vocab);
    TEXTJOIN_CHECK_OK(doc.status());
    TEXTJOIN_CHECK_OK(profiles_builder.AddDocument(*doc).status());
  }
  auto profiles = std::move(profiles_builder.Finish()).value();

  CollectionBuilder abstracts_builder(&disk, "abstracts");
  for (const char* text : kSubmissions) {
    auto doc = tokenizer.MakeDocument(text, &vocab);
    TEXTJOIN_CHECK_OK(doc.status());
    TEXTJOIN_CHECK_OK(abstracts_builder.AddDocument(*doc).status());
  }
  auto abstracts = std::move(abstracts_builder.Finish()).value();

  auto profile_index =
      InvertedFile::Build(&disk, "reviewer_profiles.inv", profiles);
  TEXTJOIN_CHECK_OK(profile_index.status());

  SimilarityConfig config;
  config.cosine_normalize = true;
  config.use_idf = true;
  auto simctx = SimilarityContext::Create(profiles, abstracts, config);
  TEXTJOIN_CHECK_OK(simctx.status());

  JoinContext ctx;
  ctx.inner = &profiles;
  ctx.outer = &abstracts;
  ctx.inner_index = &profile_index.value();
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{100, 4096, 5.0};

  JoinSpec spec;
  spec.lambda = 2;  // two reviewers per submission
  spec.similarity = config;

  // A stats collector on a copy of the context receives HVNL's entry-cache
  // counters; the planner below sees the plain context.
  disk.ResetStats();
  QueryStatsCollector collector(&disk);
  JoinContext metered = ctx;
  metered.stats = &collector;
  auto result = HvnlJoin().Run(metered, spec);
  TEXTJOIN_CHECK_OK(result.status());
  const QueryStats stats = collector.Finish();

  std::printf("Reviewer assignment (HVNL, tf-idf cosine):\n");
  for (const OuterMatches& om : *result) {
    std::printf("\nsubmission: %s\n", kSubmissions[om.outer_doc]);
    for (const Match& m : om.matches) {
      std::printf("  %-18s (similarity %.3f)\n", kReviewerNames[m.doc],
                  m.score);
    }
  }
  std::printf("\nHVNL I/O: %s (%lld entry fetches, %lld cache hits)\n",
              disk.stats().ToString().c_str(),
              static_cast<long long>(stats.root.Counter("entry_fetches")),
              static_cast<long long>(stats.root.Counter("cache_hits")));

  // What would the integrated algorithm have chosen?
  JoinPlanner planner;
  auto plan = planner.Plan(ctx, spec);
  TEXTJOIN_CHECK_OK(plan.status());
  std::printf("planner: %s\n", plan->explanation.c_str());
  return 0;
}

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/governor.h"
#include "storage/disk_manager.h"
#include "join/hhnl.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::BuildCollection;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

std::unique_ptr<testing_util::JoinFixture> SmallFixture(SimulatedDisk* disk) {
  auto inner = RandomCollection(disk, "c1", 40, 6, 50, 101);
  auto outer = RandomCollection(disk, "c2", 25, 5, 50, 202);
  return MakeFixture(disk, std::move(inner), std::move(outer));
}

TEST(HhnlTest, MatchesBruteForce) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  JoinContext ctx = f->Context(/*buffer_pages=*/50);

  HhnlJoin join;
  auto got = join.Run(ctx, spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HhnlTest, TinyBufferForcesManyBatchesSameResult) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;

  HhnlJoin join;
  JoinContext big = f->Context(1000);
  JoinContext small = f->Context(3);
  ASSERT_GE(HhnlJoin::BatchSize(big, spec), f->outer.num_documents());
  ASSERT_LT(HhnlJoin::BatchSize(small, spec), f->outer.num_documents());

  auto r1 = join.Run(big, spec);
  auto r2 = join.Run(small, spec);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST(HhnlTest, MoreBatchesCostMoreInnerScans) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  HhnlJoin join;

  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(1000), spec).ok());
  int64_t one_scan = disk.stats().total_reads();

  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(3), spec).ok());
  int64_t many_scans = disk.stats().total_reads();
  EXPECT_GT(many_scans, one_scan);
}

TEST(HhnlTest, InfeasibleBufferErrors) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  HhnlJoin join;
  auto r = join.Run(f->Context(1), spec);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(HhnlTest, OuterSubset) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {2, 7, 11, 19};
  HhnlJoin join;
  auto got = join.Run(f->Context(50), spec);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 4u);
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HhnlTest, InnerSubsetFiltersMatches) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 5;
  spec.inner_subset = {0, 1, 2, 3, 4, 5, 6, 7};
  HhnlJoin join;
  auto got = join.Run(f->Context(50), spec);
  ASSERT_TRUE(got.ok());
  for (const OuterMatches& om : *got) {
    for (const Match& m : om.matches) EXPECT_LT(m.doc, 8u);
  }
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HhnlTest, TinyInnerSubsetUsesSelectiveReads) {
  // A handful of selected inner documents in a large inner collection:
  // reading them with positioned I/Os beats a full scan
  // (m1 * ceil(S1) * alpha < D1), so the executor must not touch most of
  // the collection's pages.
  SimulatedDisk disk(256);
  auto inner = RandomCollection(&disk, "big_inner", 400, 6, 80, 505);
  auto outer = RandomCollection(&disk, "c2", 10, 5, 80, 606);
  auto f = MakeFixture(&disk, std::move(inner), std::move(outer));
  JoinSpec spec;
  spec.lambda = 3;
  spec.inner_subset = {3, 77, 311};

  HhnlJoin join;
  disk.ResetStats();
  disk.ResetHeads();
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  const IoStats join_io = disk.stats();
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
  // Far fewer pages than a full inner scan (47 pages) would need; only
  // the outer scan plus a few positioned reads per batch.
  EXPECT_LT(join_io.total_reads(),
            f->inner.size_in_pages() / 2 + f->outer.size_in_pages() + 2);
  EXPECT_GE(join_io.random_reads, 3);
}

TEST(HhnlTest, BackwardOrderSameResults) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HhnlJoin forward;
  HhnlJoin backward(HhnlJoin::Options{/*backward=*/true});
  auto r1 = forward.Run(f->Context(100), spec);
  auto r2 = backward.Run(f->Context(100), spec);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r1, *r2);
}

TEST(HhnlTest, BackwardCheaperWhenInnerTiny) {
  // The paper: the backward order can be more efficient when C1 is much
  // smaller than C2 (one pass over each collection instead of repeated
  // inner scans).
  SimulatedDisk disk(256);
  auto inner = RandomCollection(&disk, "small", 5, 6, 50, 303);
  auto outer = RandomCollection(&disk, "large", 200, 6, 50, 404);
  auto f = MakeFixture(&disk, std::move(inner), std::move(outer));
  JoinSpec spec;
  spec.lambda = 2;

  HhnlJoin forward;
  HhnlJoin backward(HhnlJoin::Options{/*backward=*/true});
  JoinContext ctx = f->Context(40);

  disk.ResetStats();
  disk.ResetHeads();
  auto r1 = forward.Run(ctx, spec);
  ASSERT_TRUE(r1.ok());
  double fwd_cost = disk.stats().Cost(5.0);

  disk.ResetStats();
  disk.ResetHeads();
  auto r2 = backward.Run(ctx, spec);
  ASSERT_TRUE(r2.ok());
  double bwd_cost = disk.stats().Cost(5.0);

  EXPECT_EQ(*r1, *r2);
  EXPECT_LE(bwd_cost, fwd_cost);
}

TEST(HhnlTest, LambdaZeroGivesEmptyMatches) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 0;
  HhnlJoin join;
  auto got = join.Run(f->Context(50), spec);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(static_cast<int64_t>(got->size()), f->outer.num_documents());
  for (const OuterMatches& om : *got) EXPECT_TRUE(om.matches.empty());
}

TEST(HhnlTest, LambdaLargerThanCollection) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 1000;
  HhnlJoin join;
  auto got = join.Run(f->Context(200), spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

// Random documents of `min_terms`..`max_terms` distinct Zipf-ish terms
// from [0, 200), weights in [1, 4].
std::vector<std::vector<DCell>> RandomDocs(int64_t n, int64_t min_terms,
                                           int64_t max_terms, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(200, 0.8);
  std::vector<std::vector<DCell>> docs;
  for (int64_t d = 0; d < n; ++d) {
    const int64_t k = min_terms + static_cast<int64_t>(rng.NextBounded(
                                      static_cast<uint64_t>(max_terms -
                                                            min_terms + 1)));
    std::set<TermId> terms;
    while (static_cast<int64_t>(terms.size()) < k) {
      terms.insert(static_cast<TermId>(zipf.Sample(&rng)));
    }
    std::vector<DCell> cells;
    for (TermId t : terms) {
      cells.push_back(DCell{t, static_cast<Weight>(1 + rng.NextBounded(4))});
    }
    docs.push_back(std::move(cells));
  }
  return docs;
}

struct BatchRun {
  int64_t X = 0;
  int64_t batches = 0;
};

// Runs one HHNL order with a stats collector; returns the batch size and
// batch count it reported, or nullopt when the buffer is infeasible.
std::optional<BatchRun> RunAndCompare(const HhnlJoin& join,
                                      const JoinContext& base,
                                      const JoinSpec& spec,
                                      const JoinResult& expected,
                                      const std::string& what) {
  QueryStatsCollector collector(base.inner->disk());
  JoinContext ctx = base;
  ctx.stats = &collector;
  auto got = join.Run(ctx, spec);
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted) << what;
    return std::nullopt;
  }
  EXPECT_EQ(*got, expected) << what;
  const QueryStats stats = collector.Finish();
  return BatchRun{stats.root.Counter("batch_size_X"),
                  stats.root.Counter("outer_batches") +
                      stats.root.Counter("inner_batches")};
}

// The batch-inverted scoring path against the per-pair brute force, bit
// for bit, at every batch boundary the buffer can produce: both orders,
// the four weightings, buffers from infeasible through X = 1, X = 2 and
// short last batches to one batch, selective subsets on either side and a
// governor budget that shrinks X. The crafted documents put the largest
// term of a scanned document above every term of the resident batch
// (inner term 9000 against outer batches without document 21, outer term
// 9500 against every inner batch), give terms 700 and 800 a single batch
// on the outer and inner side, and leave one document per side empty.
TEST(HhnlTest, BatchBoundariesBitIdenticalToBruteForce) {
  std::vector<std::vector<DCell>> inner_docs = RandomDocs(30, 12, 20, 707);
  inner_docs.push_back({});
  inner_docs.push_back({{3, 2}, {17, 1}, {700, 2}, {9000, 4}});
  inner_docs.push_back({{1, 1}, {700, 3}, {800, 2}});
  std::vector<std::vector<DCell>> outer_docs = RandomDocs(20, 10, 16, 808);
  outer_docs.push_back({});
  outer_docs.push_back({{1, 2}, {3, 1}, {9500, 2}});
  outer_docs.push_back({{17, 1}, {700, 1}, {800, 4}});
  const int64_t n1 = static_cast<int64_t>(inner_docs.size());
  const int64_t n2 = static_cast<int64_t>(outer_docs.size());

  struct Variant {
    const char* name;
    bool cosine;
    bool idf;
  };
  const Variant variants[] = {{"raw", false, false},
                              {"idf", false, true},
                              {"cosine", true, false},
                              {"cosine+idf", true, true}};
  for (const Variant& v : variants) {
    SimulatedDisk disk(64);
    SimilarityConfig config;
    config.cosine_normalize = v.cosine;
    config.use_idf = v.idf;
    auto f = MakeFixture(&disk, BuildCollection(&disk, "c1", inner_docs),
                         BuildCollection(&disk, "c2", outer_docs), config);

    std::vector<JoinSpec> specs(4);
    specs[1].outer_subset = {0, 3, 4, 9, 20, 22};
    specs[2].inner_subset = {1, 2, 5, 11, 30, 31, 32};
    specs[3].outer_subset = {2, 21, 22};
    specs[3].inner_subset = {0, 31, 32};
    for (JoinSpec& spec : specs) {
      spec.lambda = 3;
      spec.similarity = config;
    }

    for (const bool backward : {false, true}) {
      const HhnlJoin join(HhnlJoin::Options{backward});
      const char* order = backward ? "backward" : "forward";
      std::set<int64_t> sizes_seen;
      bool short_last_batch = false;
      for (size_t si = 0; si < specs.size(); ++si) {
        const JoinSpec& spec = specs[si];
        const JoinResult expected =
            BruteForceJoin(f->inner, f->outer, f->simctx, spec);
        // Documents the batches are drawn from: outer documents forward,
        // inner documents backward.
        const int64_t batched =
            backward ? (spec.inner_subset.empty()
                            ? n1
                            : static_cast<int64_t>(spec.inner_subset.size()))
                     : (spec.outer_subset.empty()
                            ? n2
                            : static_cast<int64_t>(spec.outer_subset.size()));
        for (int64_t B = 1; B <= 48; ++B) {
          const std::string what = std::string(v.name) + " " + order +
                                   " spec " + std::to_string(si) + " B=" +
                                   std::to_string(B);
          const auto run =
              RunAndCompare(join, f->Context(B), spec, expected, what);
          if (!run) continue;
          ASSERT_GE(run->X, 1) << what;
          sizes_seen.insert(run->X);
          if (run->batches > 1 && run->batches * run->X > batched) {
            short_last_batch = true;
          }
        }

        // The tightest governor memory budget the join still runs under
        // caps a roomy buffer: a smaller X, more batches, the same result.
        const JoinContext roomy = f->Context(200);
        const std::string what = std::string(v.name) + " " + order +
                                 " spec " + std::to_string(si);
        const auto full = RunAndCompare(join, roomy, spec, expected, what);
        ASSERT_TRUE(full.has_value()) << what;
        std::optional<BatchRun> shrunk;
        for (int64_t budget = 1; !shrunk && budget < 200; ++budget) {
          QueryGovernor governor(GovernorLimits{0, budget});
          JoinContext capped = roomy;
          capped.governor = &governor;
          shrunk = RunAndCompare(join, capped, spec, expected,
                                 what + " budget " + std::to_string(budget));
        }
        ASSERT_TRUE(shrunk.has_value()) << what;
        EXPECT_LT(shrunk->X, full->X) << what;
        EXPECT_GT(shrunk->batches, full->batches) << what;
      }
      EXPECT_TRUE(sizes_seen.count(1)) << v.name << " " << order;
      EXPECT_TRUE(sizes_seen.count(2)) << v.name << " " << order;
      EXPECT_TRUE(short_last_batch) << v.name << " " << order;
    }
  }
}

}  // namespace
}  // namespace textjoin

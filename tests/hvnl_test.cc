#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "join/hvnl.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::BuildCollection;
using testing_util::MakeFixture;
using testing_util::MeteredRun;
using testing_util::RandomCollection;

std::unique_ptr<testing_util::JoinFixture> SmallFixture(SimulatedDisk* disk) {
  auto inner = RandomCollection(disk, "c1", 40, 6, 50, 111);
  auto outer = RandomCollection(disk, "c2", 25, 5, 50, 222);
  return MakeFixture(disk, std::move(inner), std::move(outer));
}

TEST(HvnlTest, MatchesBruteForce) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, RequiresInnerIndex) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinContext ctx = f->Context(100);
  ctx.inner_index = nullptr;
  HvnlJoin join;
  EXPECT_FALSE(join.Run(ctx, JoinSpec{}).ok());
}

TEST(HvnlTest, SmallCacheSameResultMoreFetches) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  HvnlJoin join;

  JoinContext roomy = f->Context(200);
  ASSERT_GE(HvnlJoin::CacheCapacity(roomy, spec),
            f->inner_index.num_terms());
  JoinResult r1;
  const QueryStats s1 = MeteredRun(join, &disk, roomy, spec, &r1);
  EXPECT_GT(s1.root.Counter("cache_hits"), 0);

  // Find a buffer with a small but positive cache (well below the number
  // of inverted entries, so the cache thrashes).
  JoinContext tight = f->Context(0);
  int64_t cap = -1;
  for (int64_t b = 4; b <= 200 && !(cap >= 1 && cap <= 12); ++b) {
    tight = f->Context(b);
    cap = HvnlJoin::CacheCapacity(tight, spec);
  }
  ASSERT_GE(cap, 1);
  ASSERT_LE(cap, 12);
  ASSERT_LT(cap, f->inner_index.num_terms());
  JoinResult r2;
  const QueryStats s2 = MeteredRun(join, &disk, tight, spec, &r2);
  EXPECT_EQ(r1, r2);  // results identical despite thrashing
  EXPECT_GT(s2.root.Counter("entry_fetches"),
            s1.root.Counter("entry_fetches"));
  EXPECT_GT(s2.root.Counter("evictions"), 0);
}

// The paper's replacement policy, checked victim by victim. C1 holds four
// terms whose inverted entries each span more than a page, so a small
// buffer caches exactly two entries. The outer documents, in storage
// order, and each term's document frequency in C2:
//   d0 {1, 2}   d1 {3}   d2 {1}   d3 {4}   d4 {1, 3}
//   df2: t1 = 3, t2 = 1, t3 = 2, t4 = 1
// Lowest-df replacement: d0 fetches 1 and 2; d1 fetches 3 and evicts 2
// (df 1); d2 hits 1; d3 fetches 4 and evicts it again at once (df 1 is
// the lowest); d4 hits 1 and 3. That is 4 fetches, 3 hits, 2 evictions.
// LRU on the same trace would evict 1, 2, 3 and 4 in turn: 6 fetches,
// 1 hit, 4 evictions.
TEST(HvnlTest, EvictsTheEntryWithLowestOuterDocumentFrequency) {
  SimulatedDisk disk(256);
  std::vector<std::vector<DCell>> inner_docs;
  for (int i = 0; i < 60; ++i) {
    const Weight w = static_cast<Weight>(1 + i % 3);
    inner_docs.push_back({{1, w}, {2, w}, {3, w}, {4, w}});
  }
  auto f = MakeFixture(&disk, BuildCollection(&disk, "c1", inner_docs),
                       BuildCollection(&disk, "c2",
                                       {{{1, 1}, {2, 1}},
                                        {{3, 2}},
                                        {{1, 3}},
                                        {{4, 1}},
                                        {{1, 1}, {3, 1}}}));
  JoinSpec spec;
  spec.lambda = 2;
  JoinContext ctx = f->Context(0);
  int64_t cap = -1;
  for (int64_t b = 1; b <= 50 && cap < 2; ++b) {
    ctx = f->Context(b);
    cap = HvnlJoin::CacheCapacity(ctx, spec);
  }
  ASSERT_EQ(cap, 2);
  ASSERT_EQ(f->inner_index.num_terms(), 4);

  JoinResult got;
  const QueryStats stats = MeteredRun(HvnlJoin(), &disk, ctx, spec, &got);
  EXPECT_EQ(got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
  EXPECT_EQ(stats.root.Counter("cache_capacity_X"), 2);
  EXPECT_EQ(stats.root.Counter("entry_fetches"), 4);
  EXPECT_EQ(stats.root.Counter("cache_hits"), 3);
  EXPECT_EQ(stats.root.Counter("evictions"), 2);
}

TEST(HvnlTest, InfeasibleBufferErrors) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  HvnlJoin join;
  auto r = join.Run(f->Context(1), JoinSpec{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(HvnlTest, OuterSubsetReadRandomly) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 3;
  spec.outer_subset = {1, 5, 9};
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, InnerSubsetFilters) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 5;
  spec.inner_subset = {3, 4, 5, 10, 11};
  HvnlJoin join;
  auto got = join.Run(f->Context(100), spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, BruteForceJoin(f->inner, f->outer, f->simctx, spec));
}

TEST(HvnlTest, FewerFetchesThanTermOccurrences) {
  // The cache must make the number of entry fetches at most the number of
  // distinct needed terms when everything fits.
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 2;
  const QueryStats stats =
      MeteredRun(HvnlJoin(), &disk, f->Context(200), spec);
  EXPECT_LE(stats.root.Counter("entry_fetches"), f->inner_index.num_terms());
}

TEST(HvnlTest, StatsReportCacheHitsOnRepeatedTerms) {
  // A Zipf-ish workload repeats the frequent terms across outer documents;
  // with the cache big enough to hold every inverted entry, each repeat
  // after the first is a cache hit, no entry is ever evicted, and the
  // QueryStats counters must say exactly that.
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  JoinContext ctx = f->Context(200);
  ASSERT_GE(HvnlJoin::CacheCapacity(ctx, spec), f->inner_index.num_terms());

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  HvnlJoin join;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  QueryStats stats = collector.Finish();

  EXPECT_EQ(stats.root.label, "HVNL");
  EXPECT_GT(stats.root.Counter("cache_hits"), 0);
  EXPECT_EQ(stats.root.Counter("evictions"), 0);
}

TEST(HvnlTest, StatsReportEvictionsUnderCachePressure) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 4;
  // The same pressured-cache search as SmallCacheSameResultMoreFetches:
  // a capacity well below the number of inverted entries must thrash.
  JoinContext ctx = f->Context(0);
  int64_t cap = -1;
  for (int64_t b = 4; b <= 200 && !(cap >= 1 && cap <= 12); ++b) {
    ctx = f->Context(b);
    cap = HvnlJoin::CacheCapacity(ctx, spec);
  }
  ASSERT_GE(cap, 1);
  ASSERT_LT(cap, f->inner_index.num_terms());

  QueryStatsCollector collector(&disk);
  ctx.stats = &collector;
  HvnlJoin join;
  ASSERT_TRUE(join.Run(ctx, spec).ok());
  QueryStats stats = collector.Finish();

  EXPECT_EQ(stats.root.Counter("cache_capacity_X"), cap);
  EXPECT_GT(stats.root.Counter("evictions"), 0);
  // Every eviction frees one slot previously filled by a fetch, so the
  // fetch count dominates the eviction count.
  EXPECT_GE(stats.root.Counter("entry_fetches"),
            stats.root.Counter("evictions"));
  // The probe phase carries the fetch I/O: it must have read pages.
  const PhaseStats* probe = stats.root.Child(phase::kProbeEntries);
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->io.total_reads(), 0);
}

TEST(HvnlTest, PaysBTreeLoadCost) {
  SimulatedDisk disk(256);
  auto f = SmallFixture(&disk);
  JoinSpec spec;
  spec.lambda = 2;
  HvnlJoin join;
  disk.ResetStats();
  disk.ResetHeads();
  ASSERT_TRUE(join.Run(f->Context(200), spec).ok());
  // At least the B+tree pages plus the outer collection were read.
  EXPECT_GE(disk.stats().total_reads(),
            f->inner_index.btree().size_in_pages() +
                f->outer.size_in_pages());
}

}  // namespace
}  // namespace textjoin

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "storage/disk_manager.h"
#include "common/random.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/pruning.h"
#include "join/vvm.h"
#include "obs/query_stats.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::BuildCollection;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// Exactness is the pruning layer's hard contract: with any combination of
// bound skipping, early exit and block skipping, every executor
// must return BIT-identical results — scores compared with ==, including
// tie-breaking at the heap boundary — to the unpruned run and to the
// brute-force reference. The sweep below drives that contract across the
// three algorithms (plus HHNL's backward order), the three weighting
// configurations and several seeds; `ctest -L stress` re-runs it under
// TEXTJOIN_STRESS_SEED offsets.

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

struct Variant {
  const char* name;
  bool cosine;
  bool idf;
};

constexpr Variant kVariants[] = {
    {"raw", false, false},
    {"idf", false, true},
    {"cosine", true, false},
    {"cosine+idf", true, true},
};

Result<JoinResult> RunOne(int executor, const JoinContext& ctx,
                          const JoinSpec& spec) {
  switch (executor) {
    case 0: {
      HhnlJoin join;
      return join.Run(ctx, spec);
    }
    case 1: {
      HhnlJoin join(HhnlJoin::Options{/*backward=*/true});
      return join.Run(ctx, spec);
    }
    case 2: {
      HvnlJoin join;
      return join.Run(ctx, spec);
    }
    default: {
      VvmJoin join;
      return join.Run(ctx, spec);
    }
  }
}

constexpr const char* kExecutorNames[] = {"HHNL", "HHNL backward", "HVNL",
                                          "VVM"};

TEST(PruningSweepTest, PrunedRunsAreBitIdentical) {
  const uint64_t base = SeedOffset();
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t seed = base * 1000 + round * 17 + 1;
    for (const Variant& v : kVariants) {
      SimulatedDisk disk(256);
      auto inner = RandomCollection(&disk, "c1", 40, 6, 50, seed);
      auto outer = RandomCollection(&disk, "c2", 30, 5, 50, seed + 7);
      SimilarityConfig config;
      config.cosine_normalize = v.cosine;
      config.use_idf = v.idf;
      auto f = MakeFixture(&disk, std::move(inner), std::move(outer), config);

      JoinSpec spec;
      spec.lambda = 4;
      spec.similarity = config;
      const JoinResult expected =
          BruteForceJoin(f->inner, f->outer, f->simctx, spec);

      JoinContext ctx = f->Context(60);
      for (int executor = 0; executor < 4; ++executor) {
        spec.pruning = PruningConfig{};  // everything on
        auto pruned = RunOne(executor, ctx, spec);
        ASSERT_TRUE(pruned.ok())
            << kExecutorNames[executor] << "/" << v.name << ": "
            << pruned.status();
        spec.pruning = PruningConfig::Disabled();
        auto plain = RunOne(executor, ctx, spec);
        ASSERT_TRUE(plain.ok());
        EXPECT_EQ(*pruned, *plain)
            << kExecutorNames[executor] << "/" << v.name << " seed " << seed;
        EXPECT_EQ(*pruned, expected)
            << kExecutorNames[executor] << "/" << v.name << " seed " << seed;
      }
    }
  }
}

// Skewed document lengths: 120-cell documents against 4-cell ones, far
// beyond the 16x switch ratio, so WeightedDotKernel gallops. Every pair
// must agree bit for bit with the linear walk, and galloping must cut the
// merge cost by well over half.
TEST(PruningSweepTest, GallopingMergeSavesStepsOnSkewedLengths) {
  const uint64_t seed = SeedOffset() * 1000 + 5;
  SimulatedDisk disk(256);
  auto inner = RandomCollection(&disk, "c1", 12, 120, 400, seed);   // long
  auto outer = RandomCollection(&disk, "c2", 25, 4, 400, seed + 3);  // short
  auto f = MakeFixture(&disk, std::move(inner), std::move(outer));

  int64_t gallop_steps = 0;
  int64_t linear_steps = 0;
  for (DocId a = 0; a < 12; ++a) {
    for (DocId b = 0; b < 25; ++b) {
      auto d1 = f->inner.ReadDocument(a);
      auto d2 = f->outer.ReadDocument(b);
      ASSERT_TRUE(d1.ok() && d2.ok());
      const DotDetail gal = WeightedDotKernel(*d1, *d2, f->simctx);
      const DotDetail lin = WeightedDotDetailed(*d1, *d2, f->simctx);
      EXPECT_EQ(gal.acc, lin.acc) << "pair " << a << "," << b;
      EXPECT_EQ(gal.common_terms, lin.common_terms);
      gallop_steps += gal.merge_steps;
      linear_steps += lin.merge_steps;
    }
  }
  EXPECT_LT(gallop_steps, linear_steps / 2);
}

TEST(PruningSweepTest, BoundSkipPrunesPairsOnSpreadScores) {
  // Documents built so that score magnitudes spread widely: weight-8 blocks
  // for a few documents, weight-1 for the rest. With lambda=1 most pairs
  // provably lose, so the per-pair bound check must actually fire.
  SimulatedDisk disk(256);
  std::vector<std::vector<DCell>> inner_docs, outer_docs;
  for (int d = 0; d < 30; ++d) {
    std::vector<DCell> cells;
    const Weight w = d < 3 ? 8 : 1;
    for (TermId t = 0; t < 6; ++t) cells.push_back(DCell{t, w});
    inner_docs.push_back(cells);
  }
  for (int d = 0; d < 10; ++d) {
    std::vector<DCell> cells;
    for (TermId t = 0; t < 6; ++t) cells.push_back(DCell{t, 2});
    outer_docs.push_back(cells);
  }
  auto f = MakeFixture(&disk, BuildCollection(&disk, "c1", inner_docs),
                       BuildCollection(&disk, "c2", outer_docs));

  JoinSpec spec;
  spec.lambda = 1;
  const JoinResult expected =
      BruteForceJoin(f->inner, f->outer, f->simctx, spec);

  QueryStatsCollector collector(&disk);
  JoinContext ctx = f->Context(100);
  ctx.stats = &collector;
  HhnlJoin join;
  auto r = join.Run(ctx, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, expected);
  const CpuStats cpu = collector.Finish().root.cpu;
  EXPECT_GT(cpu.bound_checks, 0);
  EXPECT_GT(cpu.pairs_pruned, 0);
}

TEST(PruningSweepTest, HvnlSuppressesAdmissionsWithSmallLambda) {
  SimulatedDisk disk(256);
  std::vector<std::vector<DCell>> inner_docs, outer_docs;
  for (int d = 0; d < 40; ++d) {
    std::vector<DCell> cells;
    const Weight w = d < 2 ? 9 : 1;
    for (TermId t = 0; t < 5; ++t) cells.push_back(DCell{t, w});
    inner_docs.push_back(cells);
  }
  for (int d = 0; d < 8; ++d) {
    // Many cells so the admission threshold is established early and the
    // suffix bound decays across them.
    std::vector<DCell> cells;
    for (TermId t = 0; t < 5; ++t) cells.push_back(DCell{t, 2});
    outer_docs.push_back(cells);
  }
  auto f = MakeFixture(&disk, BuildCollection(&disk, "c1", inner_docs),
                       BuildCollection(&disk, "c2", outer_docs));

  JoinSpec spec;
  spec.lambda = 1;
  const JoinResult expected =
      BruteForceJoin(f->inner, f->outer, f->simctx, spec);

  JoinContext ctx = f->Context(100);
  HvnlJoin pruned_join;
  auto pruned = pruned_join.Run(ctx, spec);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, expected);

  JoinSpec off = spec;
  off.pruning = PruningConfig::Disabled();
  HvnlJoin plain_join;
  auto plain = plain_join.Run(ctx, off);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*pruned, *plain);
}

// ---- Pruning primitives -------------------------------------------------

TEST(PruningPrimitivesTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(99);
  std::vector<DCell> cells;
  TermId t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<TermId>(1 + rng.NextBounded(5));
    cells.push_back(DCell{t, 1});
  }
  for (TermId probe = 0; probe <= t + 3; ++probe) {
    for (size_t lo : {size_t{0}, cells.size() / 3, cells.size() - 1}) {
      int64_t steps = 0;
      const size_t got = GallopLowerBound(cells, lo, probe, &steps);
      const size_t want = static_cast<size_t>(
          std::lower_bound(cells.begin() + lo, cells.end(), probe,
                           [](const DCell& c, TermId term) {
                             return c.term < term;
                           }) -
          cells.begin());
      ASSERT_EQ(got, want) << "probe " << probe << " lo " << lo;
      ASSERT_GE(steps, 0);
    }
  }
}

// Merge steps of the galloping walk from the shorter document: one step
// per short cell plus every search probe — the reference count for
// WeightedDotKernel at or above kGallopSizeRatio.
int64_t GallopingSteps(const Document& d1, const Document& d2) {
  const bool d1_short = d1.cells().size() <= d2.cells().size();
  const auto& s = d1_short ? d1.cells() : d2.cells();
  const auto& l = d1_short ? d2.cells() : d1.cells();
  int64_t steps = 0;
  size_t j = 0;
  for (size_t i = 0; i < s.size() && j < l.size(); ++i) {
    ++steps;
    j = GallopLowerBound(l, j, s[i].term, &steps);
    if (j < l.size() && l[j].term == s[i].term) ++j;
  }
  return steps;
}

// WeightedDotKernel picks its intersection by length ratio alone; either
// arm must reproduce WeightedDotDetailed's acc and common_terms bit for
// bit. Below the ratio it IS the linear walk (equal merge_steps); at and
// above it the step count is the galloping walk's.
TEST(PruningPrimitivesTest, KernelsAreBitIdentical) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 10, 40, 120, 31);
  auto c2 = RandomCollection(&disk, "c2", 10, 5, 120, 32);
  auto f = MakeFixture(&disk, std::move(c1), std::move(c2));
  auto expect_identical = [&](const Document& d1, const Document& d2,
                              const std::string& what) {
    const DotDetail lin = WeightedDotDetailed(d1, d2, f->simctx);
    for (const bool swap : {false, true}) {
      const DotDetail k = swap ? WeightedDotKernel(d2, d1, f->simctx)
                               : WeightedDotKernel(d1, d2, f->simctx);
      EXPECT_EQ(k.acc, lin.acc) << what;  // bit-identical, not just close
      EXPECT_EQ(k.common_terms, lin.common_terms) << what;
      if (UseGalloping(d1.cells().size(), d2.cells().size())) {
        EXPECT_EQ(k.merge_steps, GallopingSteps(d1, d2)) << what;
      } else {
        EXPECT_EQ(k.merge_steps, lin.merge_steps) << what;
      }
    }
  };

  // 40-vs-5 cells: below the switch ratio, so every pair merges linearly.
  for (DocId a = 0; a < 10; ++a) {
    for (DocId b = 0; b < 10; ++b) {
      auto d1 = f->inner.ReadDocument(a);
      auto d2 = f->outer.ReadDocument(b);
      ASSERT_TRUE(d1.ok() && d2.ok());
      ASSERT_FALSE(UseGalloping(d1->cells().size(), d2->cells().size()));
      expect_identical(*d1, *d2, "random pair");
    }
  }

  // Length ratios around the switch: a 6-cell document against long
  // documents of even terms; the short side alternates between present
  // (even) and absent (odd) terms so both match and miss paths run.
  const int64_t short_len = 6;
  for (const int64_t ratio : {int64_t{15}, kGallopSizeRatio, int64_t{17},
                              int64_t{40}}) {
    const int64_t long_len = short_len * ratio;
    std::vector<DCell> long_cells, short_cells;
    for (int64_t k = 0; k < long_len; ++k) {
      long_cells.push_back(DCell{static_cast<TermId>(2 * k),
                                 static_cast<Weight>(1 + k % 7)});
    }
    for (int64_t i = 0; i < short_len; ++i) {
      const int64_t term = 2 * (i * long_len / short_len) + i % 2;
      short_cells.push_back(
          DCell{static_cast<TermId>(term), static_cast<Weight>(2 + i % 5)});
    }
    const Document lng = Document::FromSortedCells(long_cells);
    const Document shrt = Document::FromSortedCells(short_cells);
    EXPECT_EQ(UseGalloping(short_cells.size(), long_cells.size()),
              ratio >= kGallopSizeRatio);
    expect_identical(shrt, lng, "ratio " + std::to_string(ratio));
    expect_identical(lng, shrt, "ratio " + std::to_string(ratio));
  }
}

TEST(PruningPrimitivesTest, PairUpperBoundDominatesTrueScore) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 15, 8, 40, 41);
  auto c2 = RandomCollection(&disk, "c2", 15, 6, 40, 42);
  for (const Variant& v : kVariants) {
    SimilarityConfig config;
    config.cosine_normalize = v.cosine;
    config.use_idf = v.idf;
    auto simctx = SimilarityContext::Create(c1, c2, config);
    ASSERT_TRUE(simctx.ok());
    for (DocId a = 0; a < 15; ++a) {
      for (DocId b = 0; b < 15; ++b) {
        auto d1 = c1.ReadDocument(a);
        auto d2 = c2.ReadDocument(b);
        ASSERT_TRUE(d1.ok() && d2.ok());
        const DocBounds b1 =
            ComputeDocBounds(*d1, *simctx, simctx->inner_norms.of(a));
        const DocBounds b2 =
            ComputeDocBounds(*d2, *simctx, simctx->outer_norms.of(b));
        const double acc = WeightedDot(*d1, *d2, *simctx);
        const double final_score = simctx->Finalize(acc, a, b);
        EXPECT_LE(acc, PairUpperBoundAcc(b1, b2) * kBoundSlack)
            << v.name << " pair " << a << "," << b;
        EXPECT_LE(final_score, PairUpperBound(b1, b2) * kBoundSlack)
            << v.name << " pair " << a << "," << b;
      }
    }
  }
}

TEST(PruningPrimitivesTest, CatalogBoundsMatchComputedForRawWeights) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 12, 7, 30, 51);
  SimilarityConfig raw;  // no idf: catalog stats ARE the wt statistics
  auto c2 = RandomCollection(&disk, "c2", 5, 4, 30, 52);
  auto simctx = SimilarityContext::Create(c1, c2, raw);
  ASSERT_TRUE(simctx.ok());
  for (DocId d = 0; d < 12; ++d) {
    auto doc = c1.ReadDocument(d);
    ASSERT_TRUE(doc.ok());
    const DocBounds computed = ComputeDocBounds(*doc, *simctx, 1.0);
    const DocBounds catalog = CatalogDocBounds(c1, d, 1.0);
    EXPECT_DOUBLE_EQ(computed.max_w, catalog.max_w);
    EXPECT_DOUBLE_EQ(computed.sum_w, catalog.sum_w);
    EXPECT_NEAR(computed.norm_w, catalog.norm_w, 1e-9 * computed.norm_w);
  }
}

TEST(PruningPrimitivesTest, SuffixBoundsDecreaseToZero) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 3, 9, 30, 61);
  auto c2 = RandomCollection(&disk, "c2", 3, 9, 30, 62);
  auto simctx = SimilarityContext::Create(c1, c2, SimilarityConfig{});
  ASSERT_TRUE(simctx.ok());
  auto doc = c1.ReadDocument(0);
  ASSERT_TRUE(doc.ok());
  SuffixBounds sb;
  sb.Build(*doc, *simctx);
  const size_t n = doc->cells().size();
  EXPECT_DOUBLE_EQ(sb.suffix_sum(n), 0.0);
  EXPECT_DOUBLE_EQ(sb.suffix_max(n), 0.0);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(sb.suffix_sum(i), sb.suffix_sum(i + 1));
    EXPECT_GE(sb.suffix_max(i), sb.suffix_max(i + 1));
    EXPECT_LE(sb.suffix_max(i), sb.suffix_sum(i));
  }
}

TEST(PruningPrimitivesTest, MinEligibleNormRespectsMembership) {
  DocumentNorms norms;  // empty: of() returns 1.0 everywhere
  EXPECT_DOUBLE_EQ(MinEligibleNorm(norms, 10, {}, /*cosine=*/false), 1.0);
  EXPECT_DOUBLE_EQ(MinEligibleNorm(norms, 10, {}, /*cosine=*/true), 1.0);
  std::vector<char> member(10, 0);
  member[3] = 1;
  EXPECT_DOUBLE_EQ(MinEligibleNorm(norms, 10, member, /*cosine=*/true), 1.0);
}

// WeightedDotPruned against a full heap: when the threshold is
// unreachable the merge stops early; when it is reachable the result is
// the exact bit-identical dot product.
TEST(PruningPrimitivesTest, EarlyExitStopsOnlyProvableLosers) {
  SimulatedDisk disk(256);
  auto c1 = RandomCollection(&disk, "c1", 6, 30, 100, 71);
  auto c2 = RandomCollection(&disk, "c2", 6, 30, 100, 72);
  auto simctx = SimilarityContext::Create(c1, c2, SimilarityConfig{});
  ASSERT_TRUE(simctx.ok());
  auto d1 = c1.ReadDocument(0);
  auto d2 = c2.ReadDocument(0);
  ASSERT_TRUE(d1.ok() && d2.ok());
  const double exact = WeightedDot(*d1, *d2, *simctx);
  SuffixBounds s1, s2;
  s1.Build(*d1, *simctx);
  s2.Build(*d2, *simctx);

  TopKAccumulator accepting(2);  // empty: nothing can be pruned
  PrunedDotResult r =
      WeightedDotPruned(*d1, *d2, *simctx, s1, s2, 1.0, 0, accepting);
  EXPECT_FALSE(r.pruned);
  EXPECT_EQ(r.detail.acc, exact);

  TopKAccumulator rejecting(1);
  rejecting.Add(5, 1e12);  // unbeatable threshold
  r = WeightedDotPruned(*d1, *d2, *simctx, s1, s2, 1.0, 0, rejecting);
  EXPECT_TRUE(r.pruned);
  EXPECT_GT(r.bound_checks, 0);
}

}  // namespace
}  // namespace textjoin

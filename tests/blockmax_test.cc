// Posting formats: every executor is exact over every posting
// representation, including the multi-pass VVM shape over multi-group
// entries (seed-swept via TEXTJOIN_STRESS_SEED, see scripts/check.sh
// stress).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "index/inverted_file.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::RandomCollection;

// `scripts/check.sh stress` re-runs this binary under several seed
// offsets, so the exactness sweeps explore different collections.
uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

InvertedFile BuildIndex(Disk* disk, const std::string& name,
                        const DocumentCollection& col,
                        PostingCompression compression) {
  InvertedFile::BuildOptions opts;
  opts.compression = compression;
  auto index = InvertedFile::Build(disk, name, col, opts);
  TEXTJOIN_CHECK_OK(index.status());
  return std::move(index).value();
}

// ---------------------------------------------------------------------------
// Exactness over every posting format.

struct Executors {
  HhnlJoin hhnl;
  HhnlJoin hhnl_backward{HhnlJoin::Options{/*backward=*/true}};
  HvnlJoin hvnl;
  VvmJoin vvm;
  std::vector<std::pair<const char*, TextJoinAlgorithm*>> all() {
    return {{"hhnl", &hhnl},
            {"hhnl_backward", &hhnl_backward},
            {"hvnl", &hvnl},
            {"vvm", &vvm}};
  }
};

JoinContext MakeContext(SimulatedDisk* disk, const DocumentCollection& inner,
                        const InvertedFile& inner_index,
                        const DocumentCollection& outer,
                        const InvertedFile& outer_index,
                        const SimilarityContext& simctx,
                        int64_t buffer_pages) {
  JoinContext ctx;
  ctx.inner = &inner;
  ctx.outer = &outer;
  ctx.inner_index = &inner_index;
  ctx.outer_index = &outer_index;
  ctx.similarity = &simctx;
  ctx.sys = SystemParams{buffer_pages, disk->page_size(), 5.0};
  return ctx;
}

// The posting format is a storage choice, never a semantics change: every
// executor must match brute force bit for bit — scores AND tie-breaks —
// across weighting schemes and all three posting representations.
TEST(PostingFormatExactnessTest, EveryExecutorMatchesBruteForce) {
  const uint64_t seed = SeedOffset();
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto inner = RandomCollection(&disk, "c1", 60, 6, 50, 21 + seed);
    auto outer = RandomCollection(&disk, "c2", 35, 5, 50, 22 + seed);
    InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
    InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);

    for (const SimilarityConfig sim :
         {SimilarityConfig{false, false}, SimilarityConfig{false, true},
          SimilarityConfig{true, true}}) {
      auto simctx = SimilarityContext::Create(inner, outer, sim);
      ASSERT_TRUE(simctx.ok());
      JoinContext ctx = MakeContext(&disk, inner, inner_index, outer,
                                    outer_index, *simctx, 60);
      JoinSpec spec;
      spec.lambda = 4;
      JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

      Executors ex;
      for (auto [label, algo] : ex.all()) {
        auto got = algo->Run(ctx, spec);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status();
        EXPECT_EQ(*got, expected) << label;
      }
    }
  }
}

// The multi-pass VVM shape: a small buffer forces several matrix passes
// over dense multi-block outer entries. Each pass must emit exactly its
// slice of the brute-force result.
TEST(PostingFormatExactnessTest, MultiPassVvmStaysExact) {
  const uint64_t seed = SeedOffset();
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    // 20-term vocabulary: outer entries average 90 cells (several
    // restart groups).
    auto inner = RandomCollection(&disk, "c1", 30, 6, 20, 31 + seed);
    auto outer = RandomCollection(&disk, "c2", 300, 6, 20, 32 + seed);
    InvertedFile inner_index = BuildIndex(&disk, "c1.inv", inner, comp);
    InvertedFile outer_index = BuildIndex(&disk, "c2.inv", outer, comp);
    auto simctx = SimilarityContext::Create(inner, outer, SimilarityConfig{});
    ASSERT_TRUE(simctx.ok());
    JoinContext ctx = MakeContext(&disk, inner, inner_index, outer,
                                  outer_index, *simctx, /*buffer_pages=*/8);
    JoinSpec spec;
    spec.lambda = 4;
    ASSERT_GT(VvmJoin::Passes(ctx, spec), 1);
    JoinResult expected = BruteForceJoin(inner, outer, *simctx, spec);

    VvmJoin vvm;
    auto got = vvm.Run(ctx, spec);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
  }
}

}  // namespace
}  // namespace textjoin

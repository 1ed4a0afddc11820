// Posting blocks: block metadata correctness and its catalog round trip,
// exactness of every executor over every posting format and of the
// multi-pass VVM shape (seed-swept via TEXTJOIN_STRESS_SEED, see
// scripts/check.sh stress), and the float max-weight regression — sub-1.0
// (idf-scaled) bounds must survive quantization instead of truncating to
// zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "catalog/catalog.h"
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
// Block metadata.

// Every entry's block summaries must tile the cell list in
// kPostingBlockCells strides with exact spans and maxima, and each block
// must decode independently from its recorded offset (the delta restart
// invariant).
TEST(BlockMetadataTest, BlocksTileEntriesWithExactSummaries) {
  for (const PostingCompression comp :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    // 200 docs x 8 terms over a 30-term vocabulary: head terms exceed 64
    // documents, so multi-block entries occur.
    auto col = RandomCollection(&disk, "col", 200, 8, 30, 7);
    InvertedFile index = BuildIndex(&disk, "col.inv", col, comp);

    bool saw_multi_block = false;
    for (const auto& e : index.entries()) {
      ASSERT_FALSE(e.blocks.empty());
      EXPECT_EQ(static_cast<int64_t>(e.blocks.size()),
                (e.cell_count + kPostingBlockCells - 1) / kPostingBlockCells);
      if (e.blocks.size() > 1) saw_multi_block = true;

      auto cells = index.FetchEntry(e.term);
      ASSERT_TRUE(cells.ok());
      ASSERT_EQ(static_cast<int64_t>(cells->size()), e.cell_count);
      auto raw = index.FetchEntryRaw(e.term);
      ASSERT_TRUE(raw.ok());

      int64_t at = 0;
      int64_t prev_offset = -1;
      float entry_max = 0.0f;
      for (size_t b = 0; b < e.blocks.size(); ++b) {
        const auto& bm = e.blocks[b];
        ASSERT_GT(bm.cell_count, 0);
        ASSERT_LE(bm.cell_count, kPostingBlockCells);
        EXPECT_GT(bm.offset_bytes, prev_offset);
        prev_offset = bm.offset_bytes;
        EXPECT_EQ(bm.first_doc, (*cells)[at].doc);
        EXPECT_EQ(bm.last_doc, (*cells)[at + bm.cell_count - 1].doc);
        float block_max = 0.0f;
        for (int32_t k = 0; k < bm.cell_count; ++k) {
          block_max = std::max(
              block_max, static_cast<float>((*cells)[at + k].weight));
        }
        // Integer cell weights are exact in float, so the recorded bound
        // is the true maximum, not just an upper bound.
        EXPECT_EQ(bm.max_weight, block_max);
        entry_max = std::max(entry_max, bm.max_weight);

        // The block decodes in isolation from its recorded offset.
        const int64_t end = b + 1 < e.blocks.size()
                                ? e.blocks[b + 1].offset_bytes
                                : e.byte_length;
        std::vector<ICell> decoded;
        ASSERT_TRUE(DecodePostingBlock(raw->data() + bm.offset_bytes,
                                       end - bm.offset_bytes, bm.cell_count,
                                       comp, &decoded)
                        .ok());
        ASSERT_EQ(static_cast<int64_t>(decoded.size()), bm.cell_count);
        for (int32_t k = 0; k < bm.cell_count; ++k) {
          EXPECT_EQ(decoded[k].doc, (*cells)[at + k].doc);
          EXPECT_EQ(decoded[k].weight, (*cells)[at + k].weight);
        }
        at += bm.cell_count;
      }
      EXPECT_EQ(at, e.cell_count);
      EXPECT_EQ(e.blocks[0].offset_bytes, 0);
      EXPECT_EQ(e.max_weight, entry_max);
    }
    EXPECT_TRUE(saw_multi_block);
  }
}

// The catalog round-trip must preserve the block summaries and the float
// max weights bit for bit — a reopened index must skip exactly like the
// one that was saved.
TEST(BlockMetadataTest, CatalogRoundTripPreservesBlockSummaries) {
  SimulatedDisk disk(256);
  auto col = RandomCollection(&disk, "col", 200, 8, 30, 8);
  InvertedFile index =
      BuildIndex(&disk, "col.inv", col, PostingCompression::kDeltaVarint);
  ASSERT_TRUE(SaveInvertedFileCatalog(index, "col.inv.cat").ok());
  auto reopened = OpenInvertedFile(&disk, "col.inv.cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  ASSERT_EQ(reopened->num_terms(), index.num_terms());
  for (int64_t i = 0; i < index.num_terms(); ++i) {
    const auto& a = index.entries()[i];
    const auto& b = reopened->entries()[i];
    EXPECT_EQ(a.term, b.term);
    EXPECT_EQ(a.offset_bytes, b.offset_bytes);
    EXPECT_EQ(a.cell_count, b.cell_count);
    EXPECT_EQ(a.byte_length, b.byte_length);
    EXPECT_EQ(a.max_weight, b.max_weight);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t j = 0; j < a.blocks.size(); ++j) {
      EXPECT_EQ(a.blocks[j].first_doc, b.blocks[j].first_doc);
      EXPECT_EQ(a.blocks[j].last_doc, b.blocks[j].last_doc);
      EXPECT_EQ(a.blocks[j].cell_count, b.blocks[j].cell_count);
      EXPECT_EQ(a.blocks[j].offset_bytes, b.blocks[j].offset_bytes);
      EXPECT_EQ(a.blocks[j].max_weight, b.blocks[j].max_weight);
    }
  }
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
    // 20-term vocabulary: outer entries average 90 cells (several blocks).
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

// ---------------------------------------------------------------------------
// Float max-weight regression (satellite: EntryMeta::max_weight was int32;
// idf-scaled bounds are fractional and must not truncate to zero).

TEST(MaxWeightRegressionTest, SubUnitBoundsSurviveQuantization) {
  // Integer weights (the uint16 cell range) are exact in float.
  EXPECT_EQ(QuantizeMaxWeight(3.0), 3.0f);
  EXPECT_EQ(QuantizeMaxWeight(65535.0), 65535.0f);

  // An idf-scaled bound like 0.37*0.69 must survive with its value, only
  // ever rounding UP (a bound rounded down could be beaten by a real
  // score).
  const double bound = 0.37 * 0.69;
  const float q = QuantizeMaxWeight(bound);
  EXPECT_GT(q, 0.0f);
  EXPECT_GE(static_cast<double>(q), bound);
  EXPECT_LT(static_cast<double>(q) - bound, 1e-6);

  // The regression: the old int32 field truncated any sub-1.0 bound to
  // zero, so a zero "upper bound" hid real candidates from admission.
  EXPECT_EQ(static_cast<float>(static_cast<int32_t>(bound)), 0.0f);
}

}  // namespace
}  // namespace textjoin

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/disk_manager.h"
#include "index/inverted_file.h"
#include "index/varint.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::MakeFixture;
using testing_util::RandomCollection;

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{0xFFFFFF},
        uint64_t{0xFFFFFFFFull}, ~uint64_t{0}}) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    const uint8_t* p = buf.data();
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&p, buf.data() + buf.size(), &decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(VarintTest, SequenceRoundTrip) {
  Rng rng(5);
  std::vector<uint64_t> values;
  std::vector<uint8_t> buf;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextUint64() >> (rng.NextBounded(64));
    values.push_back(v);
    PutVarint(&buf, v);
  }
  const uint8_t* p = buf.data();
  const uint8_t* limit = buf.data() + buf.size();
  for (uint64_t v : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&p, limit, &decoded).ok());
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(p, limit);
}

TEST(VarintTest, TruncatedBufferIsDataLossNotOverread) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, uint64_t{1} << 40);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const uint8_t* p = buf.data();
    uint64_t v = 0;
    Status s = GetVarint(&p, buf.data() + cut, &v);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "cut at " << cut;
    EXPECT_EQ(p, buf.data()) << "cursor must not move on failure";
  }
}

TEST(VarintTest, ContinuationRunPastTenBytesIsDataLoss) {
  // 11 continuation bytes: shift reaches 70 — without the guard the value
  // silently wraps (or the loop reads out of bounds).
  std::vector<uint8_t> buf(16, 0x80);
  const uint8_t* p = buf.data();
  uint64_t v = 0;
  Status s = GetVarint(&p, buf.data() + buf.size(), &v);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(PostingCodecTest, CorruptContinuationBitsSurfaceAsDataLoss) {
  std::vector<ICell> cells;
  for (DocId d = 0; d < 200; ++d) cells.push_back(ICell{d * 3, 2});
  std::vector<uint8_t> buf;
  EncodePostings(cells, PostingCompression::kDeltaVarint, &buf);
  // Setting the continuation bit on every byte makes some varint run past
  // the end of the buffer: the decoder must fail closed, never overread.
  std::vector<uint8_t> corrupt = buf;
  for (uint8_t& b : corrupt) b |= 0x80;
  auto r = DecodePostings(corrupt.data(), static_cast<int64_t>(corrupt.size()),
                          static_cast<int64_t>(cells.size()),
                          PostingCompression::kDeltaVarint);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// A gap that would carry the document number past kMaxDocId is corrupt,
// including one so large that adding it wraps 64-bit arithmetic back to a
// small (and descending) document number.
TEST(PostingCodecTest, OverflowingGapIsDataLoss) {
  for (const uint64_t gap : {uint64_t{kMaxDocId}, ~uint64_t{0}}) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, 5);  // first cell: document 5, weight 1
    PutVarint(&buf, 1);
    PutVarint(&buf, gap);
    PutVarint(&buf, 1);
    auto r = DecodePostings(buf.data(), static_cast<int64_t>(buf.size()), 2,
                            PostingCompression::kDeltaVarint);
    ASSERT_FALSE(r.ok()) << "gap " << gap;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST(PostingCodecTest, TruncatedEntryIsDataLoss) {
  std::vector<ICell> cells;
  for (DocId d = 0; d < 100; ++d) cells.push_back(ICell{d * 7, 3});
  for (PostingCompression c :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    std::vector<uint8_t> buf;
    EncodePostings(cells, c, &buf);
    auto r = DecodePostings(buf.data(), static_cast<int64_t>(buf.size()) / 2,
                            static_cast<int64_t>(cells.size()), c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
}

TEST(PostingCodecTest, DeltaVarintRoundTrip) {
  std::vector<ICell> cells{{0, 1}, {1, 65535}, {100, 7}, {0xABCDEF, 2}};
  std::vector<uint8_t> buf;
  EncodePostings(cells, PostingCompression::kDeltaVarint, &buf);
  auto decoded = DecodePostings(buf.data(), static_cast<int64_t>(buf.size()),
                                4, PostingCompression::kDeltaVarint);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cells);
  // Dense small gaps compress well below 5 bytes/cell.
  std::vector<ICell> dense;
  for (DocId d = 0; d < 1000; ++d) dense.push_back(ICell{d, 1});
  EncodePostings(dense, PostingCompression::kDeltaVarint, &buf);
  EXPECT_LT(buf.size(), dense.size() * 3);
  EncodePostings(dense, PostingCompression::kNone, &buf);
  EXPECT_EQ(buf.size(), dense.size() * kICellBytes);
}

class PostingCodecPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PostingCodecPropertyTest, RandomListsRoundTrip) {
  auto [n, universe] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 31 + universe));
  std::vector<char> used(static_cast<size_t>(universe), 0);
  std::vector<ICell> cells;
  while (static_cast<int>(cells.size()) < n) {
    DocId d = static_cast<DocId>(rng.NextBounded(universe));
    if (used[d]) continue;
    used[d] = 1;
    cells.push_back(
        ICell{d, static_cast<Weight>(1 + rng.NextBounded(0xFFFF))});
  }
  std::sort(cells.begin(), cells.end(),
            [](const ICell& a, const ICell& b) { return a.doc < b.doc; });
  for (PostingCompression c :
       {PostingCompression::kNone, PostingCompression::kDeltaVarint,
        PostingCompression::kGroupVarint}) {
    std::vector<uint8_t> buf;
    EncodePostings(cells, c, &buf);
    auto decoded =
        DecodePostings(buf.data(), static_cast<int64_t>(buf.size()), n, c);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, cells);
    // Restart layout: the list's bytes are exactly the concatenation of
    // its kPostingBlockCells-cell slices encoded on their own — deltas and
    // group-varint control groups restart at every slice boundary.
    std::vector<uint8_t> concatenated, slice_bytes;
    for (int64_t at = 0; at < n; at += kPostingBlockCells) {
      const std::vector<ICell> slice(
          cells.begin() + at,
          cells.begin() + std::min<int64_t>(n, at + kPostingBlockCells));
      EncodePostings(slice, c, &slice_bytes);
      concatenated.insert(concatenated.end(), slice_bytes.begin(),
                          slice_bytes.end());
    }
    EXPECT_EQ(buf, concatenated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PostingCodecPropertyTest,
    ::testing::Combine(::testing::Values(1, 17, 256, 4000),
                       ::testing::Values(5000, 1000000)));

TEST(CompressedInvertedFileTest, SamePostingsSmallerFile) {
  SimulatedDisk disk(256);
  auto col = RandomCollection(&disk, "c", 80, 8, 60, 91);
  auto plain = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(plain.ok());
  int suffix = 0;
  for (PostingCompression c : {PostingCompression::kDeltaVarint,
                               PostingCompression::kGroupVarint}) {
    auto packed =
        InvertedFile::Build(&disk, "c" + std::to_string(suffix++) + ".vinv",
                            col, InvertedFile::BuildOptions{c});
    ASSERT_TRUE(packed.ok());
    EXPECT_LT(packed->size_in_bytes(), plain->size_in_bytes());
    EXPECT_LE(packed->size_in_pages(), plain->size_in_pages());
    ASSERT_EQ(packed->num_terms(), plain->num_terms());

    for (const auto& e : plain->entries()) {
      auto a = plain->FetchEntry(e.term);
      auto b = packed->FetchEntry(e.term);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "term " << e.term;
    }
  }
}

TEST(CompressedInvertedFileTest, ScannerDecodesCompressedEntries) {
  int suffix = 0;
  for (PostingCompression c : {PostingCompression::kDeltaVarint,
                               PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(256);
    auto col = RandomCollection(&disk, "c", 60, 6, 50, 92);
    auto packed =
        InvertedFile::Build(&disk, "c" + std::to_string(suffix++) + ".vinv",
                            col, InvertedFile::BuildOptions{c});
    ASSERT_TRUE(packed.ok());
    auto scan = packed->Scan();
    int64_t total = 0;
    while (!scan.Done()) {
      TermId t = scan.NextTerm();
      auto cells = scan.Next();
      ASSERT_TRUE(cells.ok());
      EXPECT_EQ(static_cast<int64_t>(cells->size()),
                col.DocumentFrequency(t));
      total += static_cast<int64_t>(cells->size());
    }
    EXPECT_EQ(total, col.total_cells());
  }
}

TEST(CompressedInvertedFileTest, ExecutorsAgreeAndIoDrops) {
  SimulatedDisk disk(256);
  auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 60, 6, 60, 93),
                       RandomCollection(&disk, "c2", 45, 5, 60, 94));
  auto packed1 = InvertedFile::Build(
      &disk, "c1.vinv", f->inner,
      InvertedFile::BuildOptions{PostingCompression::kDeltaVarint});
  auto packed2 = InvertedFile::Build(
      &disk, "c2.vinv", f->outer,
      InvertedFile::BuildOptions{PostingCompression::kDeltaVarint});
  ASSERT_TRUE(packed1.ok());
  ASSERT_TRUE(packed2.ok());

  JoinSpec spec;
  spec.lambda = 4;
  JoinContext plain_ctx = f->Context(100);
  JoinContext packed_ctx = plain_ctx;
  packed_ctx.inner_index = &packed1.value();
  packed_ctx.outer_index = &packed2.value();

  VvmJoin vvm;
  disk.ResetStats();
  disk.ResetHeads();
  auto r_plain = vvm.Run(plain_ctx, spec);
  int64_t plain_reads = disk.stats().total_reads();
  disk.ResetStats();
  disk.ResetHeads();
  auto r_packed = vvm.Run(packed_ctx, spec);
  int64_t packed_reads = disk.stats().total_reads();
  ASSERT_TRUE(r_plain.ok());
  ASSERT_TRUE(r_packed.ok());
  EXPECT_EQ(*r_plain, *r_packed);
  EXPECT_LT(packed_reads, plain_reads);

  HvnlJoin hvnl;
  auto h_plain = hvnl.Run(plain_ctx, spec);
  auto h_packed = hvnl.Run(packed_ctx, spec);
  ASSERT_TRUE(h_plain.ok());
  ASSERT_TRUE(h_packed.ok());
  EXPECT_EQ(*h_plain, *h_packed);
}

}  // namespace
}  // namespace textjoin

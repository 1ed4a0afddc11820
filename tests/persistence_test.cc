#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/disk_manager.h"
#include "catalog/catalog.h"
#include "common/crc32.h"
#include "storage/coding.h"
#include "storage/page_stream.h"
#include "dynamic/dynamic_collection.h"
#include "join/hhnl.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::MakeFixture;
using testing_util::RandomCollection;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// A catalog record as stored (catalog.cc WriteRecord): magic u32, payload
// length u64, payload crc u32, payload.
struct RawRecord {
  uint32_t magic = 0;
  std::vector<uint8_t> payload;
};

RawRecord ReadRawRecord(Disk* disk, const std::string& name) {
  auto file = disk->FindFile(name);
  TEXTJOIN_CHECK_OK(file.status());
  PageStreamReader reader(disk, *file);
  std::vector<uint8_t> header;
  TEXTJOIN_CHECK_OK(reader.Read(0, 16, &header));
  RawRecord record;
  record.magic = GetFixed32(header.data());
  TEXTJOIN_CHECK_OK(reader.Read(
      16, static_cast<int64_t>(GetFixed64(header.data() + 4)),
      &record.payload));
  return record;
}

// Writes `record` under `name` with a valid checksum, so whatever it holds
// reaches the decoder's semantic checks rather than the CRC check.
void WriteRawRecord(Disk* disk, const std::string& name,
                    const RawRecord& record) {
  std::vector<uint8_t> header;
  PutFixed32(&header, record.magic);
  PutFixed64(&header, record.payload.size());
  PutFixed32(&header, Crc32(record.payload.data(), record.payload.size()));
  PageStreamWriter writer(disk, disk->CreateFile(name));
  writer.Append(header);
  writer.Append(record.payload);
  TEXTJOIN_CHECK_OK(writer.Finish());
}

// Byte offset just past the fixed32-length-prefixed string at `at`.
size_t SkipString(const std::vector<uint8_t>& payload, size_t at) {
  return at + 4 + GetFixed32(payload.data() + at);
}

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t oneshot = Crc32(data.data(), data.size());
  uint32_t incremental = 0;
  incremental = Crc32Update(incremental, data.data(), 100);
  incremental = Crc32Update(incremental, data.data() + 100, 900);
  EXPECT_EQ(incremental, oneshot);
}

TEST(SnapshotTest, RoundTripPreservesFiles) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 40, 6, 50, 11);
  auto inv = InvertedFile::Build(&disk, "col.inv", col);
  ASSERT_TRUE(inv.ok());

  std::string path = TempPath("roundtrip.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());

  auto loaded = LoadDiskSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  SimulatedDisk& disk2 = **loaded;
  EXPECT_EQ(disk2.page_size(), disk.page_size());
  ASSERT_EQ(disk2.file_count(), disk.file_count());
  for (FileId f = 0; f < disk.file_count(); ++f) {
    EXPECT_EQ(disk2.FileName(f), disk.FileName(f));
    EXPECT_EQ(disk2.raw_bytes(f), disk.raw_bytes(f));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, DetectsCorruption) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 10, 4, 30, 12);
  std::string path = TempPath("corrupt.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());

  // Flip one byte in the file body region.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  auto loaded = LoadDiskSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// Snapshot v2 covers every byte with some checksum: flipping any single
// byte — header, file metadata, CRC trailers, payload — must produce a
// clean non-OK status, never a crash or a silently wrong load.
TEST(SnapshotTest, DetectsCorruptionInEveryByte) {
  SimulatedDisk disk(64);
  FileId f = disk.CreateFile("tiny");
  std::vector<uint8_t> page(64, 0xAB);
  ASSERT_TRUE(disk.AppendPage(f, page.data(), 64).ok());
  std::string path = TempPath("everybyte.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());

  std::vector<char> image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(image.size(), 0u);
  for (size_t i = 0; i < image.size(); ++i) {
    std::vector<char> corrupted = image;
    corrupted[i] ^= 0x01;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    auto loaded = LoadDiskSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " went undetected";
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ZeroLengthFilesRoundTrip) {
  // Empty files are legal (a dynamic collection's fresh WAL is one until
  // the first mutation) and must survive a snapshot with name and order.
  SimulatedDisk disk(128);
  FileId a = disk.CreateFile("empty_a");
  FileId b = disk.CreateFile("data");
  FileId c = disk.CreateFile("empty_c");
  std::vector<uint8_t> page(128, 5);
  ASSERT_TRUE(disk.AppendPage(b, page.data(), 128).ok());

  std::string path = TempPath("zerolen.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());
  auto loaded = LoadDiskSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  SimulatedDisk& disk2 = **loaded;
  ASSERT_EQ(disk2.file_count(), 3);
  EXPECT_EQ(disk2.FileName(a), "empty_a");
  EXPECT_EQ(disk2.FileSizeInPages(a).value(), 0);
  EXPECT_EQ(disk2.FileSizeInPages(b).value(), 1);
  EXPECT_EQ(disk2.raw_bytes(b), disk.raw_bytes(b));
  EXPECT_EQ(disk2.FileName(c), "empty_c");
  EXPECT_EQ(disk2.FileSizeInPages(c).value(), 0);
  // An empty file is still appendable after the round trip.
  EXPECT_TRUE(disk2.AppendPage(a, page.data(), 128).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, DuplicateFileNamesRoundTrip) {
  // Names are not unique on a SimulatedDisk (compaction generations reuse
  // none, but nothing enforces uniqueness globally). A snapshot must
  // preserve both files and keep FindFile's first-match answer stable.
  SimulatedDisk disk(64);
  FileId first = disk.CreateFile("same");
  FileId second = disk.CreateFile("same");
  std::vector<uint8_t> p1(64, 1), p2(64, 2);
  ASSERT_TRUE(disk.AppendPage(first, p1.data(), 64).ok());
  ASSERT_TRUE(disk.AppendPage(second, p2.data(), 64).ok());
  ASSERT_EQ(disk.FindFile("same").value(), first);

  std::string path = TempPath("dupnames.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());
  auto loaded = LoadDiskSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  SimulatedDisk& disk2 = **loaded;
  ASSERT_EQ(disk2.file_count(), 2);
  EXPECT_EQ(disk2.FindFile("same").value(), first);
  EXPECT_EQ(disk2.raw_bytes(first), disk.raw_bytes(first));
  EXPECT_EQ(disk2.raw_bytes(second), disk.raw_bytes(second));
  std::remove(path.c_str());
}

TEST(SnapshotTest, WalBearingImageRoundTrip) {
  // A snapshot taken while a dynamic collection has an un-compacted WAL
  // tail must reopen by replay: same live keys, same recovery report.
  SimulatedDisk disk(128);
  std::vector<Document> initial;
  for (int i = 0; i < 4; ++i) {
    initial.push_back(Document::FromSortedCells(
        {DCell{static_cast<TermId>(i), 2}, DCell{static_cast<TermId>(i + 4), 1}}));
  }
  auto dc = DynamicCollection::Create(&disk, "dyn", initial);
  ASSERT_TRUE(dc.ok()) << dc.status();
  ASSERT_TRUE((*dc)->Insert(Document::FromSortedCells({DCell{1, 3}})).ok());
  ASSERT_TRUE((*dc)->Delete(2).ok());
  const std::vector<DocKey> live = (*dc)->LiveKeys();
  const int64_t epoch = (*dc)->epoch();
  ASSERT_GT((*dc)->wal_bytes(), 0);

  std::string path = TempPath("walimage.tjsn");
  ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());
  auto loaded = LoadDiskSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reopened = DynamicCollection::Open(loaded->get(), "dyn");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->LiveKeys(), live);
  EXPECT_EQ((*reopened)->epoch(), epoch);
  EXPECT_EQ((*reopened)->last_recovery().records_replayed, 2);
  EXPECT_EQ((*reopened)->last_recovery().tail_bytes_discarded, 0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsGarbage) {
  std::string path = TempPath("garbage.tjsn");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a snapshot";
  }
  EXPECT_FALSE(LoadDiskSnapshot(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(LoadDiskSnapshot(TempPath("missing.tjsn")).status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, CollectionRoundTrip) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 30, 6, 40, 13);
  ASSERT_TRUE(SaveCollectionCatalog(col, "col.cat").ok());

  auto reopened = OpenCollection(&disk, "col.cat");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->num_documents(), col.num_documents());
  EXPECT_EQ(reopened->num_distinct_terms(), col.num_distinct_terms());
  EXPECT_EQ(reopened->total_cells(), col.total_cells());
  for (int64_t d = 0; d < col.num_documents(); ++d) {
    EXPECT_EQ(reopened->ReadDocument(static_cast<DocId>(d)).value(),
              col.ReadDocument(static_cast<DocId>(d)).value());
    EXPECT_DOUBLE_EQ(reopened->raw_norm(static_cast<DocId>(d)),
                     col.raw_norm(static_cast<DocId>(d)));
  }
  for (const auto& [term, df] : col.doc_freq_map()) {
    EXPECT_EQ(reopened->DocumentFrequency(term), df);
  }
}

TEST(CatalogTest, InvertedFileRoundTrip) {
  for (const PostingCompression comp : {PostingCompression::kDeltaVarint,
                                        PostingCompression::kGroupVarint}) {
    SimulatedDisk disk(128);
    auto col = RandomCollection(&disk, "col", 30, 6, 40, 14);
    auto inv = InvertedFile::Build(&disk, "col.inv", col,
                                   InvertedFile::BuildOptions{comp});
    ASSERT_TRUE(inv.ok());
    ASSERT_TRUE(SaveInvertedFileCatalog(*inv, "col.inv.cat").ok());

    auto reopened = OpenInvertedFile(&disk, "col.inv.cat");
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->num_terms(), inv->num_terms());
    EXPECT_EQ(reopened->size_in_bytes(), inv->size_in_bytes());
    EXPECT_EQ(reopened->compression(), comp);
    for (int64_t i = 0; i < inv->num_terms(); ++i) {
      const auto& a = inv->entries()[i];
      const auto& b = reopened->entries()[i];
      EXPECT_EQ(a.term, b.term);
      EXPECT_EQ(a.offset_bytes, b.offset_bytes);
      EXPECT_EQ(a.cell_count, b.cell_count);
      EXPECT_EQ(a.byte_length, b.byte_length);
    }
    for (const auto& e : inv->entries()) {
      EXPECT_EQ(reopened->FetchEntry(e.term).value(),
                inv->FetchEntry(e.term).value());
      EXPECT_EQ(reopened->btree().Lookup(e.term).value().address,
                inv->btree().Lookup(e.term).value().address);
    }
  }
}

// The catalog's compression byte is validated on open: a value past the
// last known PostingCompression must be rejected as kDataLoss, not cast
// into the enum and dispatched on. The record's CRC is recomputed after
// the patch so the corruption reaches the semantic check, not the
// checksum.
TEST(CatalogTest, UnknownCompressionByteRejected) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 10, 4, 20, 15);
  auto inv = InvertedFile::Build(
      &disk, "col.inv", col,
      InvertedFile::BuildOptions{PostingCompression::kGroupVarint});
  ASSERT_TRUE(inv.ok());
  ASSERT_TRUE(SaveInvertedFileCatalog(*inv, "col.inv.cat").ok());

  // The payload opens with two length-prefixed strings (data file, btree
  // file); the compression byte follows.
  RawRecord record = ReadRawRecord(&disk, "col.inv.cat");
  const size_t at = SkipString(record.payload, SkipString(record.payload, 0));
  ASSERT_EQ(record.payload[at],
            static_cast<uint8_t>(PostingCompression::kGroupVarint));
  record.payload[at] = 0x7F;
  WriteRawRecord(&disk, "col.bad.cat", record);

  auto reopened = OpenInvertedFile(&disk, "col.bad.cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("unknown compression code"),
            std::string::npos)
      << reopened.status();
}

// The full story: build, catalog, snapshot to a real file, reload in a
// fresh process-like state, reopen, and run a join with identical
// results.
TEST(CatalogTest, FullDatabaseReopenEndToEnd) {
  std::string path = TempPath("db.tjsn");
  JoinSpec spec;
  spec.lambda = 4;
  JoinResult expected;
  {
    SimulatedDisk disk(256);
    auto f = MakeFixture(&disk, RandomCollection(&disk, "c1", 40, 6, 50, 15),
                         RandomCollection(&disk, "c2", 25, 5, 50, 16));
    expected =
        testing_util::BruteForceJoin(f->inner, f->outer, f->simctx, spec);
    ASSERT_TRUE(SaveCollectionCatalog(f->inner, "c1.cat").ok());
    ASSERT_TRUE(SaveCollectionCatalog(f->outer, "c2.cat").ok());
    ASSERT_TRUE(SaveInvertedFileCatalog(f->inner_index, "c1.inv.cat").ok());
    ASSERT_TRUE(SaveDiskSnapshot(disk, path).ok());
  }

  auto disk2 = LoadDiskSnapshot(path);
  ASSERT_TRUE(disk2.ok());
  auto inner = OpenCollection(disk2->get(), "c1.cat");
  auto outer = OpenCollection(disk2->get(), "c2.cat");
  auto inner_index = OpenInvertedFile(disk2->get(), "c1.inv.cat");
  ASSERT_TRUE(inner.ok());
  ASSERT_TRUE(outer.ok());
  ASSERT_TRUE(inner_index.ok());

  auto simctx = SimilarityContext::Create(*inner, *outer, {});
  ASSERT_TRUE(simctx.ok());
  JoinContext ctx;
  ctx.inner = &inner.value();
  ctx.outer = &outer.value();
  ctx.inner_index = &inner_index.value();
  ctx.similarity = &simctx.value();
  ctx.sys = SystemParams{100, 256, 5.0};

  HhnlJoin join;
  auto result = join.Run(ctx, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, expected);
  std::remove(path.c_str());
}

// A count field is checked against the bytes left in the payload before
// anything is reserved for it: a checksummed record claiming 2^40
// elements must fail with a Status, not abort on the allocation.
constexpr uint64_t kHugeCount = uint64_t{1} << 40;

TEST(CatalogTest, ImplausibleEntryCountFailsClosed) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 10, 4, 20, 18);
  auto inv = InvertedFile::Build(&disk, "col.inv", col);
  ASSERT_TRUE(inv.ok());
  ASSERT_TRUE(SaveInvertedFileCatalog(*inv, "col.inv.cat").ok());

  // data name, btree name, compression u8, total bytes u64, entry count.
  RawRecord record = ReadRawRecord(&disk, "col.inv.cat");
  const size_t count_at =
      SkipString(record.payload, SkipString(record.payload, 0)) + 1 + 8;
  record.payload.resize(count_at);
  PutFixed64(&record.payload, kHugeCount);
  WriteRawRecord(&disk, "col.huge.cat", record);

  auto reopened = OpenInvertedFile(&disk, "col.huge.cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("implausible entry count"),
            std::string::npos)
      << reopened.status();
}

TEST(CatalogTest, ImplausibleCollectionCountsFailClosed) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 10, 4, 20, 19);
  ASSERT_TRUE(SaveCollectionCatalog(col, "col.cat").ok());
  RawRecord record = ReadRawRecord(&disk, "col.cat");
  const size_t n_at = SkipString(record.payload, 0);

  // data name, document count: every per-document array is sized by it.
  RawRecord huge_docs = record;
  huge_docs.payload.resize(n_at);
  PutFixed64(&huge_docs.payload, kHugeCount);
  WriteRawRecord(&disk, "docs.huge.cat", huge_docs);
  auto reopened = OpenCollection(&disk, "docs.huge.cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("implausible document count"),
            std::string::npos)
      << reopened.status();

  // No documents, then a term count that sizes the document-frequency map.
  RawRecord huge_terms = record;
  huge_terms.payload.resize(n_at);
  PutFixed64(&huge_terms.payload, 0);
  PutFixed64(&huge_terms.payload, kHugeCount);
  WriteRawRecord(&disk, "terms.huge.cat", huge_terms);
  reopened = OpenCollection(&disk, "terms.huge.cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("implausible term count"),
            std::string::npos)
      << reopened.status();
}

// Inverted-file records of the earlier layout ("TJIC", with a max weight
// per entry and a summary per 64-cell block) carry a different magic, so
// they fail the magic check instead of being misparsed.
TEST(CatalogTest, EarlierInvertedLayoutRejectedByMagic) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 5, 3, 20, 20);
  auto inv = InvertedFile::Build(&disk, "col.inv", col);
  ASSERT_TRUE(inv.ok());
  ASSERT_TRUE(SaveInvertedFileCatalog(*inv, "col.inv.cat").ok());
  RawRecord record = ReadRawRecord(&disk, "col.inv.cat");
  constexpr uint32_t kEarlierMagic = 0x544A4943;  // "TJIC"
  EXPECT_NE(record.magic, kEarlierMagic);
  record.magic = kEarlierMagic;
  WriteRawRecord(&disk, "col.old.cat", record);

  auto reopened = OpenInvertedFile(&disk, "col.old.cat");
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("wrong magic"),
            std::string::npos)
      << reopened.status();
}

TEST(CatalogTest, OpenMissingCatalogFails) {
  SimulatedDisk disk(128);
  EXPECT_FALSE(OpenCollection(&disk, "nope.cat").ok());
}

TEST(CatalogTest, WrongMagicRejected) {
  SimulatedDisk disk(128);
  auto col = RandomCollection(&disk, "col", 5, 3, 20, 17);
  auto inv = InvertedFile::Build(&disk, "col.inv", col);
  ASSERT_TRUE(inv.ok());
  ASSERT_TRUE(SaveCollectionCatalog(col, "col.cat").ok());
  ASSERT_TRUE(SaveInvertedFileCatalog(*inv, "col.inv.cat").ok());
  // Opening a collection catalog as an inverted file (and vice versa)
  // must fail on the magic check.
  EXPECT_FALSE(OpenInvertedFile(&disk, "col.cat").ok());
  EXPECT_FALSE(OpenCollection(&disk, "col.inv.cat").ok());
}

}  // namespace
}  // namespace textjoin

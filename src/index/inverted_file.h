#ifndef TEXTJOIN_INDEX_INVERTED_FILE_H_
#define TEXTJOIN_INDEX_INVERTED_FILE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/btree.h"
#include "storage/disk.h"
#include "storage/page_stream.h"
#include "text/collection.h"
#include "text/types.h"

namespace textjoin {

// The inverted file on a document collection: for every distinct term, a
// list of i-cells (document number, occurrences) sorted by ascending
// document number. Entries are packed tightly in consecutive storage
// locations in ascending term order (Section 3), so:
//   * VVM can scan the whole file once, sequentially, in term order;
//   * HVNL can fetch a single term's entry with a positioned read whose
//     location comes from the B+tree term directory.
// On-disk representation of posting lists.
enum class PostingCompression {
  // The paper's fixed 5-byte i-cells.
  kNone,
  // Delta-encoded document numbers + weights, both LEB128 varints — the
  // classic IR compression. Entries shrink to ~2-3 bytes per cell, which
  // shrinks I and J in the cost model's terms (bench_compression
  // quantifies the effect on HVNL and VVM).
  kDeltaVarint,
  // Same deltas and restart points as kDeltaVarint, laid out group-varint
  // style: per-group control bytes packed at the block front, payload
  // after (src/kernel/group_varint.h documents the format). 1.2-1.23x the
  // size of kDeltaVarint on the bench_compression shapes (whole bytes per
  // value plus the control bytes), but decodes branch-free — and, through
  // the dispatched SIMD kernels, several times faster.
  kGroupVarint,
};

// Restart interval of every posting list: each entry is encoded as
// consecutive groups of this many i-cells (the last may be short), and
// delta encoding restarts at each group boundary, so a group's first
// document number is absolute. Group-varint packs one group's control
// bytes at the group's front, which makes each group self-delimiting.
// The interval is part of the on-disk encoding: changing it changes every
// compressed entry's bytes (DESIGN.md section 10).
inline constexpr int64_t kPostingBlockCells = 64;

class InvertedFile {
 public:
  // Per-term catalog row (in-memory metadata mirroring the B+tree leaves).
  struct EntryMeta {
    TermId term = 0;
    int64_t offset_bytes = 0;
    int64_t cell_count = 0;   // == document frequency of the term
    int64_t byte_length = 0;  // encoded length on disk
  };

  struct BuildOptions {
    PostingCompression compression = PostingCompression::kNone;
  };

  InvertedFile(InvertedFile&&) = default;
  InvertedFile& operator=(InvertedFile&&) = default;
  InvertedFile(const InvertedFile&) = delete;
  InvertedFile& operator=(const InvertedFile&) = delete;

  // Builds the inverted file and its B+tree by scanning `collection`.
  // The scan and the writes are metered; experiment drivers reset the
  // disk's I/O stats after setup.
  static Result<InvertedFile> Build(Disk* disk, std::string name,
                                    const DocumentCollection& collection);
  static Result<InvertedFile> Build(Disk* disk, std::string name,
                                    const DocumentCollection& collection,
                                    const BuildOptions& options);

  PostingCompression compression() const { return compression_; }

  const std::string& name() const { return name_; }
  Disk* disk() const { return disk_; }
  FileId file() const { return file_; }
  const BPlusTree& btree() const { return btree_; }

  // T: number of distinct terms (inverted file entries).
  int64_t num_terms() const { return static_cast<int64_t>(entries_.size()); }

  // I: size of the inverted file in pages (tightly packed).
  int64_t size_in_pages() const;

  int64_t size_in_bytes() const { return total_bytes_; }

  // J: average size of an inverted file entry in pages.
  double avg_entry_size_pages() const;

  // Unmetered catalog access (terms ascending).
  const std::vector<EntryMeta>& entries() const { return entries_; }

  // Unmetered point metadata: index into entries() or -1.
  int64_t FindEntry(TermId term) const;

  // Fetches one entry with metered I/O: the first page of the entry is a
  // positioned (random) read, subsequent pages sequential.
  Result<std::vector<ICell>> FetchEntry(TermId term) const;

  // FetchEntry's I/O without the decode: the entry's raw encoded bytes,
  // for callers that defer decoding until first use (HVNL's entry cache).
  Result<std::vector<uint8_t>> FetchEntryRaw(TermId term) const;

  // Pages touched when entry `index` is read in isolation: the paper's
  // ceil(J) for an average entry, computed exactly from the entry's offset
  // and length.
  int64_t EntryPageSpan(int64_t index) const;

  // Sequential scanner over all entries in term order (for VVM). Consuming
  // the whole file reads each page exactly once.
  class Scanner {
   public:
    explicit Scanner(const InvertedFile* file);

    bool Done() const {
      return next_ >= static_cast<int64_t>(file_->entries_.size());
    }

    // Peeks at the term of the next entry (unmetered catalog access).
    TermId NextTerm() const { return file_->entries_[next_].term; }

    // Peeks at the next entry's i-cell count (unmetered catalog access).
    int64_t NextCellCount() const { return file_->entries_[next_].cell_count; }

    // Peeks at the next entry's catalog row (unmetered).
    const EntryMeta& NextMeta() const { return file_->entries_[next_]; }

    // Reads the next entry and advances.
    Result<std::vector<ICell>> Next();

    // Reads the next entry's raw encoded bytes and advances — same metered
    // I/O as Next(), but decoding is left to the caller (HVNL's entry
    // cache decodes an entry only when an outer document first probes it).
    Result<std::vector<uint8_t>> NextRaw();

    // Skips the next entry, still paying the I/O for pages it occupies
    // exclusively (the scan must pass over them). Implemented as a read
    // whose result is discarded — the dominant cost is I/O, which is what
    // the simulation meters.
    Status SkipEntry();

   private:
    const InvertedFile* file_;
    SequentialByteReader reader_;
    int64_t next_ = 0;
  };

  Scanner Scan() const { return Scanner(this); }

  // Reassembles an inverted file from catalog parts (catalog reopen).
  static InvertedFile FromParts(Disk* disk, FileId file,
                                std::string name, BPlusTree btree,
                                std::vector<EntryMeta> entries,
                                int64_t total_bytes,
                                PostingCompression compression);

 private:
  InvertedFile() = default;

  Disk* disk_ = nullptr;
  FileId file_ = kInvalidFileId;
  std::string name_;
  BPlusTree btree_;
  std::vector<EntryMeta> entries_;
  int64_t total_bytes_ = 0;
  PostingCompression compression_ = PostingCompression::kNone;
};

// Serializes i-cells to the 5-byte on-disk format.
void EncodeICells(const std::vector<ICell>& cells, std::vector<uint8_t>* out);

// Parses `count` i-cells from `bytes` (bounds-checked against
// `byte_length`).
Result<std::vector<ICell>> DecodeICells(const uint8_t* bytes,
                                        int64_t byte_length, int64_t count);

// Serializes one posting list in the chosen representation, restarting
// the delta encoding every kPostingBlockCells cells.
void EncodePostings(const std::vector<ICell>& cells,
                    PostingCompression compression,
                    std::vector<uint8_t>* out);

// Parses `count` i-cells of a posting list encoded as `compression` into
// caller-owned storage: writes exactly `count` cells at `out` on success
// (the caller guarantees the room), so a reader that sizes its scratch
// once decodes entry after entry without touching the allocator. Every
// read is bounds-checked against `byte_length`; corrupt bytes surface as
// kDataLoss instead of out-of-bounds reads, with nothing guaranteed about
// `out`.
Status DecodePostingsInto(const uint8_t* bytes, int64_t byte_length,
                          int64_t count, PostingCompression compression,
                          ICell* out);

// DecodePostingsInto into a freshly allocated vector.
Result<std::vector<ICell>> DecodePostings(const uint8_t* bytes,
                                          int64_t byte_length, int64_t count,
                                          PostingCompression compression);

}  // namespace textjoin

#endif  // TEXTJOIN_INDEX_INVERTED_FILE_H_

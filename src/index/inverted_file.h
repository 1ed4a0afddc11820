#ifndef TEXTJOIN_INDEX_INVERTED_FILE_H_
#define TEXTJOIN_INDEX_INVERTED_FILE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

// Cells per posting block. Every entry is cut into fixed-size blocks of
// this many i-cells; delta encoding restarts at each block boundary (the
// first document number of a block is absolute), so any block decodes
// independently of its predecessors. 64 cells keep the per-block metadata
// under 3% of an uncompressed entry while leaving enough cells per block
// for the block-max bound to be meaningfully tighter than the entry max
// (DESIGN.md section 10 discusses the choice).
inline constexpr int64_t kPostingBlockCells = 64;

// Rounds a max-weight bound up to the nearest representable float. Weights
// themselves are uint16 (exact in float), but idf-scaled bounds computed in
// double must quantize TOWARD +inf: rounding a bound down would let a real
// score exceed it, breaking the suppression soundness argument.
inline float QuantizeMaxWeight(double w) {
  float f = static_cast<float>(w);
  if (static_cast<double>(f) < w) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

class InvertedFile {
 public:
  // Block-max WAND style per-block summary: the document-number span the
  // block covers and an upper bound on any cell weight inside it. The
  // offset is relative to the entry's first byte, so a cursor can seek
  // straight to a block and decode it in isolation.
  struct PostingBlockMeta {
    DocId first_doc = 0;
    DocId last_doc = 0;
    int32_t cell_count = 0;
    int64_t offset_bytes = 0;  // from the start of the entry
    float max_weight = 0;
  };

  // Per-term catalog row (in-memory metadata mirroring the B+tree leaves).
  struct EntryMeta {
    TermId term = 0;
    int64_t offset_bytes = 0;
    int64_t cell_count = 0;   // == document frequency of the term
    int64_t byte_length = 0;  // encoded length on disk
    // Largest cell weight in the list — an upper bound on any document's
    // weight for this term, used by the exact top-lambda pruning layer
    // (join/pruning.h) to bound a term's score contribution without
    // fetching the entry. Stored round-up-quantized: truncating fractional
    // (idf-scaled) bounds toward zero would zero out sub-1.0 bounds and
    // wrongly suppress qualifying candidates.
    float max_weight = 0;
    // Fixed-size block summaries (kPostingBlockCells cells each; the last
    // block may be short). Non-empty for every entry with at least one
    // cell.
    std::vector<PostingBlockMeta> blocks;
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
  // for callers that decode block-by-block (index/posting_cursor.h).
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
    // I/O as Next(), but decoding is left to the caller (block-granular
    // lazy decode, see index/posting_cursor.h).
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

// Upper bound on the weight document `doc` can have in `entry`'s posting
// list, from block metadata alone: the covering block's max weight, or 0
// when no block's [first_doc, last_doc] span contains `doc` — a document
// outside every span provably does not appear in the list. Falls back to
// the entry max when the entry carries no block summaries.
inline float MaxWeightForDoc(const InvertedFile::EntryMeta& entry, DocId doc) {
  if (entry.blocks.empty()) return entry.max_weight;
  auto it = std::lower_bound(
      entry.blocks.begin(), entry.blocks.end(), doc,
      [](const InvertedFile::PostingBlockMeta& b, DocId d) {
        return b.last_doc < d;
      });
  if (it == entry.blocks.end() || doc < it->first_doc) return 0.0f;
  return it->max_weight;
}

// Serializes i-cells to the 5-byte on-disk format.
void EncodeICells(const std::vector<ICell>& cells, std::vector<uint8_t>* out);

// Parses `count` i-cells from `bytes` (bounds-checked against
// `byte_length`).
Result<std::vector<ICell>> DecodeICells(const uint8_t* bytes,
                                        int64_t byte_length, int64_t count);

// Serializes one posting list in the chosen representation. Delta encoding
// restarts every kPostingBlockCells cells; when `blocks` is non-null the
// per-block summaries (spans, offsets, block maxima) are appended to it.
void EncodePostings(const std::vector<ICell>& cells,
                    PostingCompression compression,
                    std::vector<uint8_t>* out,
                    std::vector<InvertedFile::PostingBlockMeta>* blocks);
void EncodePostings(const std::vector<ICell>& cells,
                    PostingCompression compression,
                    std::vector<uint8_t>* out);

// Parses `count` i-cells of a posting list encoded as `compression`.
// Every read is bounds-checked against `byte_length`; corrupt bytes
// surface as kDataLoss instead of out-of-bounds reads.
Result<std::vector<ICell>> DecodePostings(const uint8_t* bytes,
                                          int64_t byte_length, int64_t count,
                                          PostingCompression compression);

// Decodes one block of a posting list: `bytes` points at the block's first
// byte (EntryMeta::offset_bytes + PostingBlockMeta::offset_bytes),
// `byte_length` is the block's encoded length, `count` its cell count.
// Appends the cells to `out`. Thanks to the restart points a block decodes
// with no knowledge of its predecessors.
Status DecodePostingBlock(const uint8_t* bytes, int64_t byte_length,
                          int64_t count, PostingCompression compression,
                          std::vector<ICell>* out);

// DecodePostingBlock into caller-owned storage: writes exactly `count`
// cells at `out` on success (the caller guarantees the room). This is the
// zero-allocation path block-granular readers (index/posting_cursor.h)
// decode through — their scratch is sized once per entry, so steady-state
// block decode never touches the allocator. On failure nothing is
// guaranteed about `out`.
Status DecodePostingBlockInto(const uint8_t* bytes, int64_t byte_length,
                              int64_t count, PostingCompression compression,
                              ICell* out);

}  // namespace textjoin

#endif  // TEXTJOIN_INDEX_INVERTED_FILE_H_

#include "kernel/calibrate.h"

#include <chrono>
#include <cstdint>
#include <vector>

#include "index/varint.h"
#include "kernel/dispatch.h"
#include "kernel/group_varint.h"
#include "kernel/kernels.h"
#include "storage/coding.h"
#include "text/types.h"

namespace textjoin {
namespace kernel {

namespace {

// One posting block's worth of cells (kPostingBlockCells; varint.h and
// coding.h are header-only so this file can stay free of a link
// dependency on the index and storage libraries — the index library
// itself links against the kernels).
constexpr int64_t kCells = 64;

// Keep results observable so the measured loops cannot be optimized away.
volatile double g_sink_d = 0;
volatile int64_t g_sink_i = 0;

double NsPerOp(int64_t ops, const std::chrono::steady_clock::time_point& t0,
               const std::chrono::steady_clock::time_point& t1) {
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return ops > 0 ? ns / static_cast<double>(ops) : 0;
}

// A deterministic synthetic posting list shaped like the hot path: gaps of
// a few, small weights.
std::vector<ICell> SyntheticCells(int64_t n) {
  std::vector<ICell> cells;
  cells.reserve(static_cast<size_t>(n));
  uint32_t doc = 0;
  for (int64_t i = 0; i < n; ++i) {
    doc += 1 + static_cast<uint32_t>((i * 7) % 5);
    cells.push_back(ICell{doc, static_cast<Weight>(1 + (i * 13) % 9)});
  }
  return cells;
}

// The kDeltaVarint block encode/decode loops, replicated from
// index/inverted_file.cc on top of the header-only varint primitives.
void VarintEncodeBlock(const std::vector<ICell>& cells,
                       std::vector<uint8_t>* out) {
  uint32_t last = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    PutVarint(out, i == 0 ? cells[i].doc : cells[i].doc - last);
    PutVarint(out, cells[i].weight);
    last = cells[i].doc;
  }
}

bool VarintDecodeBlock(const uint8_t* bytes, int64_t byte_length,
                       int64_t count, std::vector<ICell>* out) {
  const uint8_t* p = bytes;
  const uint8_t* limit = bytes + byte_length;
  DocId doc = 0;
  for (int64_t i = 0; i < count; ++i) {
    uint64_t gap = 0, w = 0;
    if (!GetVarint(&p, limit, &gap).ok()) return false;
    if (!GetVarint(&p, limit, &w).ok()) return false;
    const uint64_t next = (i == 0 ? uint64_t{0} : uint64_t{doc}) + gap;
    if (next > 0xFFFFFFull || w > 0xFFFFull) return false;
    doc = static_cast<DocId>(next);
    out->push_back(ICell{doc, static_cast<Weight>(w)});
  }
  return true;
}

CalibratedCosts Measure() {
  CalibratedCosts costs;
  const KernelTable& k = Active();
  constexpr int kRounds = 2000;
  const std::vector<ICell> cells = SyntheticCells(kCells);

  {  // merge step: two synthetic documents with sparse overlap.
    std::vector<DCell> a, b;
    for (int64_t i = 0; i < 256; ++i) {
      a.push_back(DCell{static_cast<TermId>(2 * i), 1});
      b.push_back(DCell{static_cast<TermId>(3 * i), 1});
    }
    int32_t ma[512], mb[512];
    int64_t total_steps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
      MergeCursor cur;
      int64_t nm = 0;
      total_steps += MergeLinearPortable(a.data(), 256, b.data(), 256, &cur,
                                         512, ma, mb, &nm);
      g_sink_i = nm;
    }
    costs.ns_per_merge_step =
        NsPerOp(total_steps, t0, std::chrono::steady_clock::now());
  }

  {  // accumulation: contribution scale plus the in-order add.
    std::vector<double> contrib(static_cast<size_t>(kCells));
    double acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
      k.scale_cells(cells.data(), kCells, 2.0, 1.5, contrib.data());
      for (int64_t i = 0; i < kCells; ++i) acc += contrib[i];
    }
    g_sink_d = acc;
    costs.ns_per_accumulation =
        NsPerOp(kRounds * kCells, t0, std::chrono::steady_clock::now());
  }

  {  // varint block decode (the scalar LEB128 baseline).
    std::vector<uint8_t> enc;
    VarintEncodeBlock(cells, &enc);
    std::vector<ICell> out;
    out.reserve(static_cast<size_t>(kCells));
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
      out.clear();
      if (!VarintDecodeBlock(enc.data(), static_cast<int64_t>(enc.size()),
                             kCells, &out)) {
        break;
      }
      g_sink_i = out.back().doc;
    }
    costs.ns_per_cell_varint =
        NsPerOp(kRounds * kCells, t0, std::chrono::steady_clock::now());
  }

  {  // kNone block decode: the paper's fixed 5-byte i-cells, replicated
     // from index/inverted_file.cc on top of the header-only coders.
    std::vector<uint8_t> enc;
    for (const ICell& c : cells) {
      PutFixed24(&enc, c.doc);
      PutFixed16(&enc, c.weight);
    }
    std::vector<ICell> out(static_cast<size_t>(kCells));
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (int64_t i = 0; i < kCells; ++i) {
        const uint8_t* p = enc.data() + kICellBytes * i;
        out[static_cast<size_t>(i)] = ICell{GetFixed24(p), GetFixed16(p + 3)};
      }
      g_sink_i = out.back().doc;
    }
    costs.ns_per_cell_fixed =
        NsPerOp(kRounds * kCells, t0, std::chrono::steady_clock::now());
  }

  {  // group-varint block decode through the dispatched kernel.
    std::vector<uint8_t> enc;
    GvEncodeBlock(cells.data(), kCells, &enc);
    std::vector<ICell> out(static_cast<size_t>(kCells));
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
      int64_t consumed = 0;
      if (!k.gv_decode(enc.data(), static_cast<int64_t>(enc.size()), kCells,
                       out.data(), &consumed)
               .ok()) {
        break;
      }
      g_sink_i = out.back().doc;
    }
    costs.ns_per_cell_gv =
        NsPerOp(kRounds * kCells, t0, std::chrono::steady_clock::now());
  }

  return costs;
}

}  // namespace

const CalibratedCosts& Calibrated() {
  static const CalibratedCosts costs = Measure();
  return costs;
}

}  // namespace kernel
}  // namespace textjoin

#include "obs/calibrate.h"

#include <chrono>
#include <cstdint>
#include <vector>

#include "index/inverted_file.h"
#include "kernel/dispatch.h"
#include "kernel/kernels.h"
#include "text/types.h"

namespace textjoin {

namespace {

// One restart span's worth of cells.
constexpr int64_t kCells = kPostingBlockCells;

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

// ns per cell of the engine's decode of `cells` stored as `compression`.
double TimeDecode(const std::vector<ICell>& cells,
                  PostingCompression compression, int rounds) {
  std::vector<uint8_t> enc;
  EncodePostings(cells, compression, &enc);
  const int64_t n = static_cast<int64_t>(cells.size());
  std::vector<ICell> out(cells.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    if (!DecodePostingsInto(enc.data(), static_cast<int64_t>(enc.size()), n,
                            compression, out.data())
             .ok()) {
      break;
    }
    g_sink_i = out.back().doc;
  }
  return NsPerOp(rounds * n, t0, std::chrono::steady_clock::now());
}

CalibratedCosts Measure() {
  CalibratedCosts costs;
  const kernel::KernelTable& k = kernel::Active();
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
      kernel::MergeCursor cur;
      int64_t nm = 0;
      total_steps += kernel::MergeLinearPortable(a.data(), 256, b.data(),
                                                 256, &cur, 512, ma, mb, &nm);
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

  costs.ns_per_cell_fixed =
      TimeDecode(cells, PostingCompression::kNone, kRounds);
  costs.ns_per_cell_varint =
      TimeDecode(cells, PostingCompression::kDeltaVarint, kRounds);
  costs.ns_per_cell_gv =
      TimeDecode(cells, PostingCompression::kGroupVarint, kRounds);

  return costs;
}

}  // namespace

const CalibratedCosts& Calibrated() {
  static const CalibratedCosts costs = Measure();
  return costs;
}

}  // namespace textjoin

#ifndef TEXTJOIN_KERNEL_CALIBRATE_H_
#define TEXTJOIN_KERNEL_CALIBRATE_H_

namespace textjoin {
namespace kernel {

// Wall-time cost of one unit of each simulated CPU counter, measured on
// THIS machine with the ACTIVE dispatch level. The simulated counters
// (join/cpu_stats.h) stay the machine-independent ground truth the golden
// tests compare; these constants are the bridge from counts to
// nanoseconds, so EXPLAIN ANALYZE can print "what would this cost here"
// next to the counts without making the counts machine-dependent.
struct CalibratedCosts {
  double ns_per_merge_step = 0;     // linear term-merge, per logical step
  double ns_per_accumulation = 0;   // contribution scale + add, per cell
  double ns_per_cell_varint = 0;    // kDeltaVarint block decode, per cell
  double ns_per_cell_gv = 0;        // kGroupVarint block decode, per cell
  double ns_per_cell_fixed = 0;     // kNone (5-byte i-cell) decode, per cell
};

// Measured once per process (first call pays a few milliseconds of
// micro-loops), then cached. Values depend on the machine, the build and
// the dispatch level active at first call — callers must keep them out of
// any output a golden test pins.
const CalibratedCosts& Calibrated();

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_KERNEL_CALIBRATE_H_

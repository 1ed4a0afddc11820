#include "kernel/kernels.h"
#include "kernel/kernels_common.h"

// The portable baseline table: compiled for the project's default
// architecture with no SIMD assumptions. The AVX2 level must be
// bit-identical to this one (tests/kernel_test.cc sweeps the levels). The
// portable term merge shared by every caller is defined here too.

namespace textjoin {
namespace kernel {

int64_t MergeLinearPortable(const DCell* a, int64_t na, const DCell* b,
                            int64_t nb, MergeCursor* cur, int64_t max_steps,
                            int32_t* match_a, int32_t* match_b,
                            int64_t* num_matches) {
  int64_t i = cur->i;
  int64_t j = cur->j;
  int64_t steps = 0;
  int64_t m = 0;
  while (steps < max_steps && i < na && j < nb) {
    ++steps;
    if (a[i].term < b[j].term) {
      ++i;
    } else if (a[i].term > b[j].term) {
      ++j;
    } else {
      match_a[m] = static_cast<int32_t>(i);
      match_b[m] = static_cast<int32_t>(j);
      ++m;
      ++i;
      ++j;
    }
  }
  cur->i = i;
  cur->j = j;
  *num_matches = m;
  return steps;
}

const KernelTable kScalarTable = {"scalar", internal::GvDecodeScalarImpl,
                                  internal::ScaleCellsScalarImpl};

}  // namespace kernel
}  // namespace textjoin

#ifndef TEXTJOIN_KERNEL_DISPATCH_H_
#define TEXTJOIN_KERNEL_DISPATCH_H_

#include <vector>

#include "kernel/kernels.h"

namespace textjoin {
namespace kernel {

// Runtime CPU dispatch for the hot-path kernels. The level is chosen once,
// at first use, from what the code observes: AVX2 when it is compiled in
// AND reported by the CPU, scalar otherwise. Every later call is a plain
// indirect call through the resolved KernelTable. Tests that sweep every
// compiled variant move the level with SetLevelForTest.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

const char* LevelName(Level level);

// Levels compiled into this binary AND usable on this CPU, ascending.
// kScalar is always present.
std::vector<Level> AvailableLevels();

// The level the dispatcher resolved.
Level ActiveLevel();

// The kernel table of the active level.
const KernelTable& Active();

// The kernel table of an explicit level (must be in AvailableLevels()).
const KernelTable& TableFor(Level level);

// Test hook: force a dispatch level for the rest of the process (bit-
// identity sweeps run every compiled variant through the same join, with
// scalar as the reference). Returns false when the level is not
// available on this CPU/binary.
bool SetLevelForTest(Level level);

}  // namespace kernel
}  // namespace textjoin

#endif  // TEXTJOIN_KERNEL_DISPATCH_H_

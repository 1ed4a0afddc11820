#include "kernel/dispatch.h"

namespace textjoin {
namespace kernel {

namespace {

// Compiled in AND reported usable by this CPU. The AVX2 table only exists
// when its translation unit was compiled (TEXTJOIN_HAVE_AVX2 comes from
// src/kernel/CMakeLists.txt probing the compiler), so both conditions
// gate together here.
bool Avx2Usable() {
#ifdef TEXTJOIN_HAVE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Resolved once at first use; SetLevelForTest may move it afterwards.
Level& ActiveSlot() {
  static Level level = Avx2Usable() ? Level::kAvx2 : Level::kScalar;
  return level;
}

}  // namespace

const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (Avx2Usable()) levels.push_back(Level::kAvx2);
  return levels;
}

Level ActiveLevel() { return ActiveSlot(); }

const KernelTable& TableFor(Level level) {
#ifdef TEXTJOIN_HAVE_AVX2
  if (level == Level::kAvx2) return kAvx2Table;
#endif
  return kScalarTable;
}

const KernelTable& Active() { return TableFor(ActiveSlot()); }

bool SetLevelForTest(Level level) {
  if (level == Level::kAvx2 && !Avx2Usable()) return false;
  ActiveSlot() = level;
  return true;
}

}  // namespace kernel
}  // namespace textjoin

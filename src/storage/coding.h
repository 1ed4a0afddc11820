#ifndef TEXTJOIN_STORAGE_CODING_H_
#define TEXTJOIN_STORAGE_CODING_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace textjoin {

// Little-endian fixed-width encodings. The paper's on-disk cells use
// 3-byte term/document numbers and 2-byte occurrence counts (a d-cell or
// i-cell is 5 bytes); the B+tree uses 9-byte leaf cells (3-byte term,
// 4-byte address, 2-byte document frequency).

inline void PutFixed16(std::vector<uint8_t>* dst, uint16_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutFixed24(std::vector<uint8_t>* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v >> 16));
}

inline void PutFixed32(std::vector<uint8_t>* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v >> 16));
  dst->push_back(static_cast<uint8_t>(v >> 24));
}

inline void PutFixed64(std::vector<uint8_t>* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline uint16_t GetFixed16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

inline uint32_t GetFixed24(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16;
}

inline uint32_t GetFixed32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // little-endian hosts only; asserted in coding.cc
}

inline uint64_t GetFixed64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace textjoin

#endif  // TEXTJOIN_STORAGE_CODING_H_

#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define SNAPPER_CRC32C_X86 1
#endif

namespace snapper::crc32c {

namespace {

// Table-driven CRC32C, generated at static-init time from the Castagnoli
// polynomial (reflected form 0x82f63b78).
struct Table {
  std::array<uint32_t, 256> t{};
  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

const Table kTable;

#if SNAPPER_CRC32C_X86
// The SSE4.2 crc32 instruction computes the same polynomial: byte steps up
// to an 8-byte boundary, then one 64-bit step per 8 bytes.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc),
                       static_cast<uint8_t>(*data++));
    --n;
  }
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc),
                       static_cast<uint8_t>(*data++));
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if SNAPPER_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return internal::ExtendTable;
}

}  // namespace

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable.t[(crc ^ static_cast<uint8_t>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool UsesHardware() { return ChooseExtend() != ExtendTable; }

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace snapper::crc32c

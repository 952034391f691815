// CRC32C (Castagnoli), used to frame WAL records. Extend uses the SSE4.2
// crc32 instruction when the CPU has it (chosen once, at first use) and a
// table-driven loop otherwise; non-x86 builds compile only the table loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace snapper::crc32c {

/// Extends `init_crc` with `data`. Pass 0 as the initial value.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

namespace internal {
/// The table-driven path, always available. Tests compare it against
/// Extend to check the hardware path.
uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n);
/// True if Extend runs the SSE4.2 path on this machine.
bool UsesHardware();
}  // namespace internal

/// CRC32C of a buffer.
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(std::string_view data) {
  return Extend(0, data.data(), data.size());
}

/// Masked CRC (RocksDB-style) so that CRCs of CRC-bearing payloads do not
/// collide with CRCs of raw data.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace snapper::crc32c

// CRC32 (Castagnoli polynomial) used to checksum on-media log entries so
// mount-time recovery can detect torn or stale entries.

#ifndef EASYIO_COMMON_CRC32_H_
#define EASYIO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace easyio {

// On x86-64 CPUs with SSE4.2 this runs the CPU's crc32 instruction, eight
// bytes per step; elsewhere it runs the slicing-by-8 table. Both give the
// same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

namespace internal {

// The table path, whichever path Crc32c takes; exposed for tests.
uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed);
// Whether Crc32c takes the hardware path on this CPU.
bool Crc32cUsesHardware();

}  // namespace internal

}  // namespace easyio

#endif  // EASYIO_COMMON_CRC32_H_

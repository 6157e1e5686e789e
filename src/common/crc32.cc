#include "src/common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace easyio {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // CRC32C, reflected

// Slicing-by-8: kTables[0] is the classic bytewise table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups fold
// eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes this same reflected CRC32C.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  uint64_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}

bool DetectSse42() {
  __builtin_cpu_init();  // it may run before the runtime's own detection
  return __builtin_cpu_supports("sse4.2");
}

// Checked once, at static initialisation. A Crc32c call made during static
// initialisation before this flag is set reads it as false and takes the
// table path, which gives the same value.
const bool kUseSse42 = DetectSse42();
#else
constexpr bool kUseSse42 = false;
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  if (kUseSse42) {
    return Crc32cSse42(data, n, seed);
  }
#endif
  return internal::Crc32cTable(data, n, seed);
}

namespace internal {

bool Crc32cUsesHardware() { return kUseSse42; }

uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  // Little-endian words assembled bytewise (compilers fold each into one
  // load on little-endian hosts): p[0] sits in the low byte of `lo`.
  const auto le32 = [](const unsigned char* b) {
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 |
           uint32_t{b[3]} << 24;
  };
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = le32(p) ^ crc;
    const uint32_t hi = le32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

}  // namespace internal

}  // namespace easyio

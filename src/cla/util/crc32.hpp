// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used to checksum `.clat` v2 chunk payloads. Header-only and free of
// allocation or global constructors: the tables are constexpr, so the
// functions are safe to call from async-signal context (the crash-time
// trace spill) and from static initialisation order-sensitive code.
//
// Slice-by-8: eight 256-entry tables fold eight input bytes per step
// (one table lookup per byte, no serial dependency between the eight),
// with a byte-wise loop for the tail. Values are identical to the
// classic one-table byte loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cla::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  // tables[k][i] is the CRC contribution of byte i followed by k zero bytes.
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

constexpr std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Initial value for an incremental CRC-32 computation.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes into a running CRC state (start from kCrc32Init).
constexpr std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                     std::size_t len) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; len >= 8; len -= 8, bytes += 8) {
    const std::uint32_t lo = detail::load_le32(bytes) ^ crc;
    const std::uint32_t hi = detail::load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

/// Finalises a running CRC state into the standard CRC-32 value.
constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a single byte range.
constexpr std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, len));
}

}  // namespace cla::util

#include "cla/util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace cla::util {
namespace {

// The classic one-table byte-at-a-time CRC-32, computed bit by bit: the
// reference the sliced implementation must match on every input.
std::uint32_t reference_crc32(const unsigned char* bytes, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, StandardCheckValue) {
  static constexpr char kCheck[] = "123456789";
  EXPECT_EQ(crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(kCheck, 0), 0u);
}

TEST(Crc32, SliceBy8MatchesByteWiseReferenceAtEveryLengthAndAlignment) {
  std::array<unsigned char, 64 + 8> buffer{};
  std::uint32_t state = 0x12345678u;
  for (auto& byte : buffer) {  // xorshift fill: every byte value shows up
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    byte = static_cast<unsigned char>(state);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* start = buffer.data() + offset;
      EXPECT_EQ(crc32(start, len), reference_crc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalUpdatesMatchOneShotAcrossEverySplit) {
  std::array<unsigned char, 40> buffer{};
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  const std::uint32_t whole = crc32(buffer.data(), buffer.size());
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    std::uint32_t crc = crc32_update(kCrc32Init, buffer.data(), split);
    crc = crc32_update(crc, buffer.data() + split, buffer.size() - split);
    EXPECT_EQ(crc32_final(crc), whole) << "split " << split;
  }
}

}  // namespace
}  // namespace cla::util

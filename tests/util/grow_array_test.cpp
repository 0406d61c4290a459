// GrowArray: contents survive the move from the heap to a mapping and
// every later growth of the mapping, through each way the trace and index
// tables fill it.
#include "cla/util/grow_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace cla::util {
namespace {

/// A 40-B entry, the size of an index row, that knows its own position.
struct Entry {
  std::uint64_t key = 0;
  std::uint64_t check = 0;
  std::uint32_t pad[6] = {};

  friend bool operator==(const Entry&, const Entry&) = default;
};

Entry entry(std::uint64_t key) { return Entry{key, key * 2654435761u, {}}; }

/// Entries past several mapping growths: 64 KiB is ≈1.6 k entries.
constexpr std::size_t kMany = 40'000;

void expect_same(const GrowArray<Entry>& got, const std::vector<Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "entry " << i;
  }
}

TEST(GrowArray, PushBackKeepsContentsThroughEveryGrowth) {
  GrowArray<Entry> array;
  std::vector<Entry> want;
  for (std::size_t i = 0; i < kMany; ++i) {
    array.push_back(entry(i));
    want.push_back(entry(i));
    // Check at each heap growth, the move to a mapping and its growths.
    if ((i & (i + 1)) == 0) expect_same(array, want);
  }
  expect_same(array, want);
}

TEST(GrowArray, RangeAppendCrossesTheMappingThreshold) {
  std::vector<Entry> want;
  for (std::size_t i = 0; i < kMany; ++i) want.push_back(entry(i));
  GrowArray<Entry> array;
  // Chunks of growing size, the last few larger than the whole array.
  std::size_t at = 0;
  for (std::size_t chunk = 1; at < want.size(); chunk *= 3) {
    const std::size_t n = std::min(chunk, want.size() - at);
    array.append(want.data() + at, want.data() + at + n);
    at += n;
    expect_same(array, std::vector<Entry>(want.begin(), want.begin() + at));
  }
  array.append(want.data(), want.data());  // an empty range
  expect_same(array, want);
}

TEST(GrowArray, MidArrayInsertShiftsTheTailAcrossGrowths) {
  // Nested sections arrive out of order: each odd key goes in before the
  // last entry, as the scans' rows do.
  GrowArray<Entry> array;
  std::vector<Entry> want;
  for (std::size_t i = 0; i < kMany; ++i) {
    if (i % 2 == 1 && !array.empty()) {
      array.insert(array.end() - 1, entry(i));
      want.insert(want.end() - 1, entry(i));
    } else {
      array.insert(array.end(), entry(i));
      want.push_back(entry(i));
    }
  }
  array.insert(array.begin(), entry(kMany));
  want.insert(want.begin(), entry(kMany));
  expect_same(array, want);
}

TEST(GrowArray, ResizeValueInitialisesAndShrinks) {
  GrowArray<Entry> array;
  for (std::size_t i = 0; i < 100; ++i) array.push_back(entry(i));
  array.resize(kMany);
  ASSERT_EQ(array.size(), kMany);
  for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(array[i], entry(i));
  for (std::size_t i = 100; i < kMany; ++i) ASSERT_EQ(array[i], Entry{});
  for (std::size_t i = 0; i < kMany; ++i) array[i] = entry(i);
  array.resize(3 * kMany);  // grows the mapping again
  for (std::size_t i = 0; i < kMany; ++i) ASSERT_EQ(array[i], entry(i));
  EXPECT_EQ(array.back(), Entry{});
  const std::size_t capacity = array.capacity();
  array.resize(10);
  EXPECT_EQ(array.size(), 10u);
  EXPECT_EQ(array.back(), entry(9));
  EXPECT_EQ(array.capacity(), capacity);
}

TEST(GrowArray, CopiesAndMovesAreIndependent) {
  for (const std::size_t n : {std::size_t{10}, kMany}) {  // heap, mapping
    GrowArray<Entry> array;
    std::vector<Entry> want;
    for (std::size_t i = 0; i < n; ++i) {
      array.push_back(entry(i));
      want.push_back(entry(i));
    }
    GrowArray<Entry> copy(array);
    copy[0] = entry(n);
    expect_same(array, want);
    GrowArray<Entry> assigned;
    assigned.push_back(entry(7));
    assigned = array;
    expect_same(assigned, want);

    GrowArray<Entry> moved(std::move(copy));
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(moved[0], entry(n));
    GrowArray<Entry> target;
    target = std::move(assigned);
    EXPECT_TRUE(assigned.empty());
    expect_same(target, want);
    // A moved-from array is usable again.
    assigned.push_back(entry(1));
    EXPECT_EQ(assigned.size(), 1u);
  }
}

TEST(GrowArray, ClearKeepsStorageForTheRefill) {
  GrowArray<Entry> array;
  for (std::size_t i = 0; i < kMany; ++i) array.push_back(entry(i));
  const std::size_t capacity = array.capacity();
  array.clear();
  EXPECT_TRUE(array.empty());
  EXPECT_EQ(array.capacity(), capacity);
  std::vector<Entry> want;
  for (std::size_t i = 0; i < 2 * kMany; ++i) {
    array.push_back(entry(i + 1));
    want.push_back(entry(i + 1));
  }
  expect_same(array, want);
}

TEST(GrowArray, ReserveMakesRoomWithoutChangingContents) {
  GrowArray<Entry> array;
  array.reserve(kMany);
  EXPECT_TRUE(array.empty());
  EXPECT_GE(array.capacity(), kMany);
  for (std::size_t i = 0; i < 5; ++i) array.push_back(entry(i));
  const Entry* data = array.data();
  array.reserve(5);
  EXPECT_EQ(array.data(), data);
  for (std::size_t i = 5; i < kMany; ++i) array.push_back(entry(i));
  EXPECT_EQ(array.data(), data);  // never outgrew the reservation
  EXPECT_EQ(array.back(), entry(kMany - 1));
}

}  // namespace
}  // namespace cla::util

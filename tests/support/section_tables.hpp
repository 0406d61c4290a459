// The TraceIndex section-store invariant, checked after every extend() by
// the index and incremental suites:
//   - each thread's SectionTable is in event order, and each row's slot
//     names the mutex of its MutexAcquired event;
//   - each mutex's order is a bijection onto the rows with its slot,
//     strictly sorted, and each entry's key is its row's acquired_ts;
//   - row_of() finds every row, and previous_owner() is the order's
//     predecessor.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cla/analysis/index.hpp"

namespace cla::test_support {

inline void expect_section_tables_match(const analysis::TraceIndex& index,
                                        const std::string& label) {
  using analysis::SectionRef;
  using analysis::SectionRow;
  ASSERT_EQ(index.slot_count(), index.mutexes().size()) << label;
  // Slots number the mutexes densely.
  std::vector<trace::ObjectId> mutex_of_slot(index.slot_count(), trace::kNoObject);
  for (const auto& [id, mi] : index.mutexes()) {
    ASSERT_LT(mi.slot, index.slot_count()) << label << " mutex " << id;
    ASSERT_EQ(mutex_of_slot[mi.slot], trace::kNoObject) << label << " mutex " << id;
    mutex_of_slot[mi.slot] = id;
  }
  std::vector<std::size_t> rows_per_slot(index.slot_count(), 0);
  for (trace::ThreadId tid = 0; tid < index.threads().size(); ++tid) {
    const analysis::SectionTable& table = index.thread_sections(tid);
    const trace::EventsView& events = index.view().thread_events(tid);
    const std::string where = label + " thread " + std::to_string(tid);
    for (std::uint32_t row = 0; row < table.size(); ++row) {
      const SectionRow& r = table[row];
      if (row > 0) {
        ASSERT_LT(table[row - 1].acquired_idx, r.acquired_idx) << where;
      }
      ASSERT_LT(r.acquired_idx, events.size()) << where << " row " << row;
      ASSERT_EQ(events.type_at(r.acquired_idx), trace::EventType::MutexAcquired)
          << where << " row " << row;
      ASSERT_LT(r.slot, index.slot_count()) << where << " row " << row;
      EXPECT_EQ(mutex_of_slot[r.slot], events.object_at(r.acquired_idx))
          << where << " row " << row;
      EXPECT_EQ(index.row_of(tid, r.acquired_idx), row) << where;
      ++rows_per_slot[r.slot];
    }
  }
  for (const auto& [id, mi] : index.mutexes()) {
    const std::string where = label + " mutex " + std::to_string(id);
    // Strictly sorted references that each name a row of this mutex, as
    // many as it has rows: every row once.
    ASSERT_EQ(mi.order.size(), rows_per_slot[mi.slot]) << where;
    for (std::size_t k = 0; k < mi.order.size(); ++k) {
      const SectionRef ref = mi.order[k].section;
      ASSERT_LT(ref.tid, index.threads().size()) << where << " #" << k;
      ASSERT_LT(ref.row, index.thread_sections(ref.tid).size()) << where;
      ASSERT_EQ(index.row(ref).slot, mi.slot) << where << " #" << k;
      ASSERT_EQ(index.row(ref).acquired_ts, mi.order[k].acquired_ts)
          << where << " #" << k;
      if (k == 0) {
        EXPECT_FALSE(index.previous_owner(ref).has_value()) << where;
        continue;
      }
      ASSERT_LT(mi.order[k - 1], mi.order[k]) << where << " #" << k;
      EXPECT_EQ(index.previous_owner(ref), mi.order[k - 1].section)
          << where << " #" << k;
    }
  }
}

}  // namespace cla::test_support

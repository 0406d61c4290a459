// The TraceIndex section-store invariant, checked after every extend() by
// the index and incremental suites:
//   - each thread's SectionTable is in event order, and each row's slot
//     names the mutex of its MutexAcquired event;
//   - each mutex's order is a bijection onto the rows with its slot,
//     strictly sorted, and each entry's key is its row's acquired_ts;
//   - row_of() finds every row, and previous_owner() is the order's
//     predecessor.
// and its wait store (expect_wait_tables_match):
//   - each thread's barrier and condvar tables are in event order, each
//     row closes at a BarrierLeave / CondWaitEnd, and barrier_wait_of()
//     and cond_wait_of() find every row;
//   - each barrier's and condvar's totals are a fold over its rows, and
//     each barrier episode's last arriver is the latest arrival among its
//     rows (ties toward the lower tid, then the earlier row);
//   - each condvar's signals are strictly sorted, one per signal event.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
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

inline void expect_wait_tables_match(const analysis::TraceIndex& index,
                                     const std::string& label) {
  using analysis::BarrierWaitRecord;
  using analysis::CondWaitRecord;
  using trace::EventType;
  // Folds over the rows: per barrier its totals and, per episode key, the
  // best (latest arrival, lowest tid, earliest row) wait; per condvar its
  // totals and its signal events.
  std::map<trace::ObjectId, analysis::BarrierTotals> barriers;
  std::map<std::pair<trace::ObjectId, std::uint32_t>,
           std::tuple<std::uint64_t, trace::ThreadId, std::uint32_t>>
      last;
  std::map<trace::ObjectId, analysis::CondTotals> conds;
  std::map<trace::ObjectId, std::vector<analysis::CondSignalRecord>> signals;
  for (trace::ThreadId tid = 0; tid < index.threads().size(); ++tid) {
    const trace::EventsView& events = index.view().thread_events(tid);
    const std::string where = label + " thread " + std::to_string(tid);
    const auto& barrier_rows = index.thread_barrier_waits(tid);
    for (std::uint32_t row = 0; row < barrier_rows.size(); ++row) {
      const BarrierWaitRecord& w = barrier_rows[row];
      if (row > 0) {
        ASSERT_LT(barrier_rows[row - 1].leave_idx, w.leave_idx) << where;
      }
      ASSERT_LT(w.leave_idx, events.size()) << where << " barrier row " << row;
      ASSERT_EQ(events.type_at(w.leave_idx), EventType::BarrierLeave) << where;
      ASSERT_EQ(events.type_at(w.arrive_idx), EventType::BarrierArrive) << where;
      const trace::ObjectId id = events.object_at(w.leave_idx);
      EXPECT_EQ(events.object_at(w.arrive_idx), id) << where;
      EXPECT_EQ(index.barrier_wait_of(tid, w.leave_idx), row) << where;
      barriers[id].add(tid, w);
      const auto candidate = std::make_tuple(~w.arrive_ts, tid, row);
      const auto [it, inserted] = last.try_emplace({id, w.generation}, candidate);
      if (!inserted && candidate < it->second) it->second = candidate;
    }
    const auto& cond_rows = index.thread_cond_waits(tid);
    for (std::uint32_t row = 0; row < cond_rows.size(); ++row) {
      const CondWaitRecord& w = cond_rows[row];
      if (row > 0) {
        ASSERT_LT(cond_rows[row - 1].end_idx, w.end_idx) << where;
      }
      ASSERT_LT(w.end_idx, events.size()) << where << " condvar row " << row;
      ASSERT_EQ(events.type_at(w.end_idx), EventType::CondWaitEnd) << where;
      ASSERT_EQ(events.type_at(w.begin_idx), EventType::CondWaitBegin) << where;
      EXPECT_EQ(index.cond_wait_of(tid, w.end_idx), row) << where;
      conds[events.object_at(w.end_idx)].add(w);
    }
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      const EventType type = events.type_at(i);
      if (type == EventType::CondSignal || type == EventType::CondBroadcast) {
        signals[events.object_at(i)].push_back({events.ts_at(i), tid, i});
      }
    }
  }
  ASSERT_EQ(index.barriers().size(), barriers.size()) << label;
  for (const auto& [id, bi] : index.barriers()) {
    const std::string where = label + " barrier " + std::to_string(id);
    const analysis::BarrierTotals& want = barriers[id];
    EXPECT_EQ(bi.totals.waits, want.waits) << where;
    EXPECT_EQ(bi.totals.wait, want.wait) << where;
    for (trace::ThreadId tid = 0; tid < index.threads().size(); ++tid) {
      const auto per_thread = [tid](const analysis::BarrierTotals& t) {
        return tid < t.wait_per_thread.size() ? t.wait_per_thread[tid] : 0;
      };
      EXPECT_EQ(per_thread(bi.totals), per_thread(want)) << where << " tid " << tid;
    }
    EXPECT_EQ(bi.totals.episodes, bi.episodes.size()) << where;
    for (const auto& [key, episode] : bi.episodes) {
      const auto it = last.find({id, key});
      ASSERT_NE(it, last.end()) << where << " episode " << key;
      EXPECT_EQ(episode.tid, std::get<1>(it->second)) << where << " episode " << key;
      EXPECT_EQ(episode.row, std::get<2>(it->second)) << where << " episode " << key;
      EXPECT_EQ(~episode.arrive_ts, std::get<0>(it->second)) << where;
      last.erase(it);
    }
  }
  EXPECT_TRUE(last.empty()) << label << ": episodes missing from the index";
  for (const auto& [id, ci] : index.conds()) {
    const std::string where = label + " condvar " + std::to_string(id);
    EXPECT_EQ(ci.totals.waits, conds[id].waits) << where;
    EXPECT_EQ(ci.totals.wait, conds[id].wait) << where;
    EXPECT_EQ(ci.totals.signals, ci.signals.size()) << where;
    std::vector<analysis::CondSignalRecord> want = signals[id];
    std::sort(want.begin(), want.end());
    ASSERT_EQ(ci.signals.size(), want.size()) << where;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_TRUE(ci.signals[k] == want[k])
          << where << " signal #" << k << ": ts " << ci.signals[k].ts
          << " tid " << ci.signals[k].tid << ", want ts " << want[k].ts
          << " tid " << want[k].tid;
    }
    conds.erase(id);
    signals.erase(id);
  }
  EXPECT_TRUE(conds.empty()) << label << ": condvar waits missing from the index";
  EXPECT_TRUE(signals.empty()) << label << ": signals missing from the index";
}

}  // namespace cla::test_support

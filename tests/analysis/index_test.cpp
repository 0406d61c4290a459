#include "cla/analysis/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "cla/trace/builder.hpp"
#include "cla/util/thread_pool.hpp"
#include "support/lock_schedule.hpp"
#include "support/section_tables.hpp"

namespace cla::analysis {
namespace {

using trace::TraceBuilder;

/// Every mutex's running totals equal a fresh fold over its sections, and
/// max_hold() bounds every section's hold time.
void expect_totals_fold(const TraceIndex& index, const std::string& label) {
  for (const auto& [id, mi] : index.mutexes()) {
    SectionTotals totals;
    std::vector<std::uint64_t> wait(index.threads().size(), 0);
    std::vector<std::uint64_t> hold(index.threads().size(), 0);
    std::map<std::uint64_t, SectionTotals> callsites;
    for (const auto& [acquired_ts, section] : mi.order) {
      const SectionRow& row = index.row(section);
      const trace::EventsView& events = index.view().thread_events(section.tid);
      const std::uint64_t wait_time = row.acquired_ts - index.acquire_ts(section);
      totals.add(row, wait_time);
      wait[section.tid] += wait_time;
      hold[section.tid] += row.hold_time();
      const std::uint64_t stack = row.stack_id(events);
      if (stack != 0) callsites[stack].add(row, wait_time);
      EXPECT_LE(row.hold_time(), index.max_hold(section.tid))
          << label << " mutex " << id;
    }
    EXPECT_EQ(mi.totals, totals) << label << " mutex " << id;
    ASSERT_EQ(index.slot_times().size(), index.threads().size()) << label;
    for (std::size_t tid = 0; tid < wait.size(); ++tid) {
      const SlotTimes& times = index.slot_times()[tid];
      ASSERT_EQ(times.wait.size(), index.slot_count()) << label;
      ASSERT_EQ(times.hold.size(), index.slot_count()) << label;
      EXPECT_EQ(times.wait[mi.slot], wait[tid]) << label << " mutex " << id;
      EXPECT_EQ(times.hold[mi.slot], hold[tid]) << label << " mutex " << id;
    }
    EXPECT_EQ(mi.callsites, callsites) << label << " mutex " << id;
  }
}

/// Extends one index over `rounds` growing prefixes of `full` (each
/// thread cut at proportional points) and checks the totals and the
/// section and wait tables every round. A non-null `pool` runs the pooled
/// tail and table sorts.
void expect_totals_fold_every_extend(const trace::Trace& full, std::size_t rounds,
                                     const std::string& label,
                                     util::ThreadPool* pool = nullptr) {
  const auto thread_count = static_cast<trace::ThreadId>(full.thread_count());
  std::vector<trace::Trace> prefixes(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      const auto events = full.thread_events(tid);
      const std::size_t end =
          std::max<std::size_t>(1, events.size() * (r + 1) / rounds);
      prefixes[r].append_thread_events(tid, events.subspan(0, end));
    }
  }
  TraceIndex index;
  std::vector<ThreadScanState> scans(thread_count);
  for (std::size_t r = 0; r < rounds; ++r) {
    const trace::TraceView view(prefixes[r]);
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      scans[tid].consume(view.thread_events(tid), tid);
    }
    index.extend(view, scans, pool);
    const std::string where = label + " round " + std::to_string(r);
    expect_totals_fold(index, where);
    test_support::expect_section_tables_match(index, where);
    test_support::expect_wait_tables_match(index, where);
  }
}

TEST(TraceIndex, PairsCriticalSections) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).lock(9, 6, 6, 8).exit(10);
  const trace::Trace t = b.finish();
  const TraceIndex index(t);
  ASSERT_EQ(index.mutexes().size(), 1u);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.order.size(), 2u);
  const SectionRow& first = index.row(mi.order[0].section);
  EXPECT_EQ(first.acquired_ts, 1u);
  EXPECT_EQ(first.released_ts, 4u);
  EXPECT_EQ(first.hold_time(), 3u);
  EXPECT_EQ(index.acquire_ts(mi.order[0].section), 1u);
  EXPECT_EQ(first.acquire_idx, 1u);
  EXPECT_EQ(first.released_idx, 3u);
  EXPECT_FALSE(first.provisional());
  EXPECT_EQ(index.row(mi.order[1].section).acquired_ts, 6u);
}

TEST(TraceIndex, OrdersSectionsAcrossThreadsByAcquisition) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 5, 5, 9).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 0, 0, 4).exit(20);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.order.size(), 2u);
  EXPECT_EQ(mi.order[0].section.tid, 1u);  // acquired at 0
  EXPECT_EQ(mi.order[1].section.tid, 0u);  // acquired at 5
  EXPECT_EQ(index.previous_owner(mi.order[1].section), mi.order[0].section);
}

TEST(TraceIndex, ContendedFlagComesFromEventArg) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 3, 4).lock(9, 5, 5, 6).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  const MutexIndex& mi = index.mutexes().at(9);
  EXPECT_TRUE(index.row(mi.order[0].section).contended());
  EXPECT_FALSE(index.row(mi.order[1].section).contended());
}

TEST(TraceIndex, UnreleasedSectionClosedAtThreadExit) {
  TraceBuilder b;
  b.thread(0).start(0).acquire(9, 2).acquired(9, 2, false).exit(15);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.order.size(), 1u);
  EXPECT_EQ(index.row(mi.order[0].section).released_ts, 15u);
  EXPECT_EQ(index.row(mi.order[0].section).released_idx, 3u);
  EXPECT_TRUE(index.row(mi.order[0].section).provisional());
}

TEST(TraceIndex, SectionOfLookup) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  // MutexAcquired is event index 2 (start, acquire, acquired, ...).
  EXPECT_EQ(index.row_of(0, 2), 0u);
  EXPECT_EQ(index.row_of(0, 1), TraceIndex::npos32);
  // Rows are held per thread: a thread past the trace has none.
  EXPECT_EQ(index.row_of(1, 2), TraceIndex::npos32);
  EXPECT_EQ(index.row_of(trace::kNoThread, 2), TraceIndex::npos32);
}

TEST(TraceIndex, EqualAcquisitionTimesOrderByThreadThenEvent) {
  TraceBuilder b;
  // All three sections obtain lock 9 at t=4; thread 0 requested it last.
  b.thread(0).start(0).lock(9, 3, 4, 4).exit(10);
  b.thread(1).start(0, trace::kNoThread).lock(9, 1, 4, 4).lock(9, 4, 4, 4).exit(10);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  // Ownership order is (acquired_ts, tid, acquired_idx); MutexAcquired
  // events sit at indices 2 and 5.
  EXPECT_EQ(index.row_of(0, 2), 0u);
  EXPECT_EQ(index.row_of(1, 2), 0u);
  EXPECT_EQ(index.row_of(1, 5), 1u);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.order.size(), 3u);
  EXPECT_EQ(mi.order[0].section, (SectionRef{0, 0}));
  EXPECT_EQ(mi.order[1].section, (SectionRef{1, 0}));
  EXPECT_EQ(mi.order[2].section, (SectionRef{1, 1}));
  EXPECT_EQ(index.row(mi.order[2].section).acquired_idx, 5u);
}

TEST(TraceIndex, ExtendMatchesOneShotWhenTimestampsRegress) {
  TraceBuilder b;
  // Thread 0's second section regresses to t=3, behind its first.
  b.thread(0).start(0).lock(9, 10, 10, 12).lock(9, 3, 3, 4).lock(9, 8, 8, 9).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 5, 5, 6).exit(7);
  const trace::Trace full = b.finish_unchecked();
  trace::Trace prefix;  // thread 0 up to its third section
  prefix.append_thread_events(0, full.thread_events(0).subspan(0, 7));
  prefix.append_thread_events(1, full.thread_events(1));

  TraceIndex index;
  std::vector<ThreadScanState> scans(2);
  const trace::TraceView first(prefix);
  for (trace::ThreadId tid = 0; tid < 2; ++tid) {
    scans[tid].consume(first.thread_events(tid), tid);
  }
  index.extend(first, scans, nullptr);
  test_support::expect_section_tables_match(index, "first extend");
  const trace::TraceView second(full);
  scans[0].consume(second.thread_events(0), 0);
  // The new section (t=8) merges into the order between the one acquired
  // at t=3 and the one at t=10; thread 0's table just appends it.
  index.extend(second, scans, nullptr);
  test_support::expect_section_tables_match(index, "second extend");

  const TraceIndex reference(full);
  const auto& got = index.mutexes().at(9).order;
  const auto& want = reference.mutexes().at(9).order;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << k;
    EXPECT_EQ(index.row(got[k].section).acquired_idx,
              reference.row(want[k].section).acquired_idx)
        << k;
  }
}

TEST(TraceIndex, RunningTotalsFoldEveryExtend) {
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const std::string workers = p == nullptr ? " (inline)" : " (4 workers)";
    test_support::LockSchedule schedule;
    schedule.stacks = true;
    const trace::Trace callsites = test_support::scheduled_locks(schedule);
    expect_totals_fold_every_extend(callsites, 9, "callsites" + workers, p);
    expect_totals_fold_every_extend(
        test_support::with_clock_step_back(callsites, 2, 40, callsites.end_ts() / 5),
        9, "regressing thread 2" + workers, p);
    schedule.long_hold = callsites.end_ts() / 3;
    expect_totals_fold_every_extend(test_support::scheduled_locks(schedule), 9,
                                    "long hold" + workers, p);
    schedule = {};
    schedule.nested = true;
    expect_totals_fold_every_extend(test_support::scheduled_locks(schedule), 9,
                                    "nested" + workers, p);
    expect_totals_fold_every_extend(test_support::producer_consumer(), 9,
                                    "condvar" + workers, p);
    expect_totals_fold_every_extend(test_support::late_barrier_arrivals(), 5,
                                    "barrier" + workers, p);
  }
}

TEST(TraceIndex, RunningTotalsFoldAfterOneShotConstruction) {
  TraceBuilder b;
  b.thread(0).start(0).lock_at(9, 1, 1, 1, 4).lock_at(9, 2, 5, 6, 8).exit(10);
  b.thread(1).start(0, trace::kNoThread).lock_at(9, 1, 2, 4, 5).acquire(9, 9).acquired(9, 9, false).exit(12);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  expect_totals_fold(index, "one-shot");
  const MutexIndex& mi = index.mutexes().at(9);
  EXPECT_EQ(mi.totals.invocations, 4u);
  EXPECT_EQ(mi.totals.contended, 2u);
  ASSERT_EQ(mi.callsites.size(), 2u);
  EXPECT_EQ(mi.callsites.at(1).invocations, 2u);
  EXPECT_EQ(index.max_hold(1), 3u);  // the section held until exit at t=12
}

TEST(TraceIndex, HeldSectionTableEntryFollowsEveryExtend) {
  // Mutex 1 is held across three extends while inner sections on mutex 2
  // close, so its provisional copy keeps its table row and only its
  // release point moves: to each round's last event, then to the release.
  TraceBuilder b;
  b.thread(0).start(0).acquire(1, 1).acquired(1, 1, false)
      .lock(2, 2, 2, 3).lock(2, 4, 4, 5).lock(2, 6, 6, 7)
      .released(1, 8).exit(9);
  const trace::Trace full = b.finish_unchecked();
  TraceIndex index;
  std::vector<ThreadScanState> scans(1);
  for (const std::size_t events : {6u, 9u, 12u, 14u}) {
    trace::Trace prefix;
    prefix.append_thread_events(0, full.thread_events(0).subspan(0, events));
    const trace::TraceView view(prefix);
    scans[0].consume(view.thread_events(0), 0);
    index.extend(view, scans, nullptr);
    const std::string where = std::to_string(events) + " events";
    test_support::expect_section_tables_match(index, where);
    const SectionTable& table = index.thread_sections(0);
    ASSERT_GE(table.size(), 1u) << where;
    EXPECT_EQ(table[0].acquired_idx, 2u) << where;
    const std::uint64_t released =
        events < 14 ? view.thread_events(0).ts_at(events - 1) : 8u;
    EXPECT_EQ(table[0].released_ts, released) << where;
    EXPECT_EQ(table[0].provisional(), events < 14) << where;
  }
}

TEST(TraceIndex, MutexSeenOnlyReleasedIsIndexed) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).released(5, 6).exit(10);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  ASSERT_EQ(index.mutexes().count(5), 1u);
  EXPECT_TRUE(index.mutexes().at(5).order.empty());
  EXPECT_EQ(index.mutexes().at(9).order.size(), 1u);
  test_support::expect_section_tables_match(index, "stray release");
}

/// How many of `index`'s barrier waits fall in each episode, by key.
std::map<std::uint32_t, std::size_t> waits_per_episode(const TraceIndex& index) {
  std::map<std::uint32_t, std::size_t> out;
  for (trace::ThreadId tid = 0; tid < index.threads().size(); ++tid) {
    for (const BarrierWaitRecord& w : index.thread_barrier_waits(tid)) {
      ++out[w.generation];
    }
  }
  return out;
}

TEST(TraceIndex, BarrierEpisodesGroupByRecordedGeneration) {
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 1, 5, 0).barrier(7, 8, 12, 1).exit(20);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 5, 5, 0).barrier(7, 12, 12, 1).exit(20);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const BarrierIndex& bi = index.barriers().at(7);
  ASSERT_EQ(bi.episodes.size(), 2u);
  const std::map<std::uint32_t, std::size_t> two_each = {{0, 2}, {1, 2}};
  EXPECT_EQ(waits_per_episode(index), two_each);
  // Last arriver of episode 0 arrived at t=5 on thread 1.
  EXPECT_EQ(bi.episodes.at(0).tid, 1u);
  EXPECT_EQ(index.thread_barrier_waits(1)[bi.episodes.at(0).row].arrive_ts, 5u);
}

TEST(TraceIndex, BarrierEpisodesFallBackToPerThreadOrdinal) {
  TraceBuilder b;  // no recorded generation (kNoArg)
  b.thread(0).start(0).barrier(7, 1, 5).barrier(7, 8, 12).exit(20);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 5, 5).barrier(7, 12, 12).exit(20);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const BarrierIndex& bi = index.barriers().at(7);
  ASSERT_EQ(bi.episodes.size(), 2u);
  EXPECT_EQ(waits_per_episode(index).at(0), 2u);
}

TEST(TraceIndex, CondWaitsAndSignalsIndexed) {
  TraceBuilder b;
  auto t0 = b.thread(0).start(0);
  t0.acquire(4, 1).acquired(4, 1, false);
  t0.cond_wait(8, 4, 2, 9);
  t0.released(4, 10).exit(12);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(11);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const CondIndex& ci = index.conds().at(8);
  EXPECT_EQ(ci.totals.waits, 1u);
  const auto& waits = index.thread_cond_waits(0);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].begin_ts, 2u);
  EXPECT_EQ(waits[0].end_ts, 9u);
  EXPECT_TRUE(index.thread_cond_waits(1).empty());
  ASSERT_EQ(ci.signals.size(), 1u);
  EXPECT_EQ(ci.signals[0].tid, 1u);
}

TEST(TraceIndex, ThreadLifecycleFacts) {
  TraceBuilder b;
  b.thread(0).start(0).create(1, 1).join(1, 2, 9).exit(10);
  b.thread(1).start(1, 0).lock(9, 2, 2, 5).exit(8);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  ASSERT_EQ(index.threads().size(), 2u);
  EXPECT_EQ(index.threads()[0].start_ts, 0u);
  EXPECT_EQ(index.threads()[0].exit_ts, 10u);
  EXPECT_EQ(index.threads()[1].parent, 0u);
  EXPECT_EQ(index.threads()[1].duration(), 7u);
  EXPECT_EQ(index.threads()[0].sync_ops, 0u);  // create/join are lifecycle
  EXPECT_EQ(index.threads()[1].sync_ops, 3u);  // acquire/acquired/released
  const EventRef create = index.create_event(1);
  ASSERT_TRUE(create.valid());
  EXPECT_EQ(create.tid, 0u);
  EXPECT_EQ(create.index, 1u);
}

TEST(TraceIndex, LastFinishedThread) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  b.thread(1).start(0, trace::kNoThread).exit(25);
  b.thread(2).start(0, trace::kNoThread).exit(19);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  EXPECT_EQ(index.last_finished_thread(), 1u);
}

TEST(TraceIndex, MissingCreateEventIsInvalid) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  EXPECT_FALSE(index.create_event(5).valid());
}

}  // namespace
}  // namespace cla::analysis

#include "cla/analysis/stats.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/analyze.hpp"
#include "support/lock_schedule.hpp"
#include "cla/trace/builder.hpp"

namespace cla::analysis {
namespace {

using trace::TraceBuilder;

// Two threads, one lock, clean handoff.
trace::Trace handoff_trace() {
  TraceBuilder b;
  b.name_object(9, "Q");
  b.thread(0).start(0).lock(9, 0, 0, 6).exit(10);
  b.thread(1).start(0, trace::kNoThread).lock(9, 1, 6, 9).exit(20);
  return b.finish_unchecked();
}

TEST(Stats, Type2TotalsAndAverages) {
  const AnalysisResult result = test_support::analyze(handoff_trace());
  const LockStats* q = result.find_lock("Q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->invocations, 2u);
  EXPECT_EQ(q->contended, 1u);
  EXPECT_EQ(q->total_wait, 5u);   // T1 waited 1..6
  EXPECT_EQ(q->total_hold, 9u);   // 6 + 3
  EXPECT_DOUBLE_EQ(q->avg_contention_prob, 0.5);
  EXPECT_DOUBLE_EQ(q->avg_invocations, 1.0);
  // Wait fraction: T0 0/10, T1 5/20 -> mean 0.125.
  EXPECT_NEAR(q->avg_wait_fraction, 0.125, 1e-12);
  // Hold fraction: T0 6/10, T1 3/20 -> mean 0.375.
  EXPECT_NEAR(q->avg_hold_fraction, 0.375, 1e-12);
}

TEST(Stats, Type1OnPathMetrics) {
  const AnalysisResult result = test_support::analyze(handoff_trace());
  const LockStats* q = result.find_lock("Q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->cp_invocations, 2u);
  EXPECT_EQ(q->cp_hold_time, 9u);
  EXPECT_NEAR(q->cp_time_fraction, 9.0 / 20.0, 1e-12);
  EXPECT_DOUBLE_EQ(q->cp_contention_prob, 0.5);
  EXPECT_NEAR(q->invocation_increase, 2.0, 1e-12);  // 2 on CP / 1 avg
  EXPECT_NEAR(q->hold_increase, (9.0 / 20.0) / 0.375, 1e-12);
}

TEST(Stats, PartialOverlapCountsOnlyOnPathTime) {
  // T1 holds lock L across a blocking wait on M: only the on-path part of
  // the L hold is charged to the critical path.
  TraceBuilder b;
  b.name_object(1, "L");
  b.name_object(2, "M");
  auto t0 = b.thread(0).start(0);
  auto t1 = b.thread(1).start(0, trace::kNoThread);
  t0.lock(2, 0, 0, 8);  // T0 holds M until 8
  t0.exit(9);
  t1.acquire(1, 0).acquired(1, 0, false);  // T1 takes L at 0
  t1.lock(2, 1, 8, 12);                    // blocks on M from 1 to 8
  t1.released(1, 14);                      // releases L at 14
  t1.exit(20);
  const AnalysisResult result = test_support::analyze(b.finish_unchecked());
  const LockStats* l = result.find_lock("L");
  ASSERT_NE(l, nullptr);
  // L is held [0,14) but the backward walk leaves T1 at its blocked
  // acquisition of M (wake at 8) and rides T0 before that, so only the
  // [8,14) part of the hold is on the path: 6 of the 14 held units.
  EXPECT_EQ(l->cp_invocations, 1u);
  EXPECT_EQ(l->cp_hold_time, 6u);
}

/// TYPE 1 figures of `t` equal a fold of CriticalPath::overlap over every
/// section, per lock and per call stack: the path-driven visit and its
/// overlap cursor skip and measure nothing differently.
void expect_type1_fold(const trace::Trace& t, const std::string& label) {
  Options options;
  options.validate = false;  // a clock that steps back fails validation
  const AnalysisResult result = test_support::analyze(t, options);
  const TraceIndex index(t);
  std::map<std::pair<trace::ObjectId, std::uint64_t>, PathTotals> want;
  for (const auto& [id, mi] : index.mutexes()) {
    for (const auto& [acquired_ts, section] : mi.order) {
      const SectionRow& cs = index.row(section);
      const std::uint64_t on = result.path.overlap(section.tid, cs.acquired_ts,
                                                   cs.released_ts);
      if (on == 0) continue;
      const std::uint64_t stack_id =
          cs.stack_id(index.view().thread_events(section.tid));
      for (const std::uint64_t stack : {std::uint64_t{0}, stack_id}) {
        PathTotals& p = want[{id, stack}];
        p.hold += on;
        ++p.invocations;
        p.contended += cs.contended() ? 1 : 0;
        if (stack_id == 0) break;
      }
    }
  }
  std::size_t checked = 0;
  for (const LockStats& ls : result.locks) {
    const PathTotals p = want[{ls.id, 0}];
    EXPECT_EQ(ls.cp_hold_time, p.hold) << label << " lock " << ls.id;
    EXPECT_EQ(ls.cp_invocations, p.invocations) << label << " lock " << ls.id;
    EXPECT_EQ(ls.cp_contended, p.contended) << label << " lock " << ls.id;
    checked += p.invocations;
  }
  for (const CallsiteStats& cs : result.callsites) {
    const PathTotals p = want[{cs.lock_id, cs.stack_id}];
    EXPECT_EQ(cs.cp_hold_time, p.hold) << label << " stack " << cs.stack_id;
    EXPECT_EQ(cs.cp_invocations, p.invocations) << label << " stack " << cs.stack_id;
  }
  EXPECT_GT(checked, 0u) << label;
}

TEST(Stats, Type1MatchesOverlapFoldOnNestedLongAndRegressingSections) {
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  const trace::Trace plain = test_support::scheduled_locks(schedule);
  expect_type1_fold(plain, "plain");
  // Thread 2's clock steps back: its sections are visited without a cursor.
  expect_type1_fold(test_support::with_clock_step_back(plain, 2, 40, plain.end_ts() / 5),
                    "regressing thread 2");
  schedule.long_hold = plain.end_ts() / 3;  // one section spans many intervals
  expect_type1_fold(test_support::scheduled_locks(schedule), "long hold");
  schedule = {};
  schedule.nested = true;
  expect_type1_fold(test_support::scheduled_locks(schedule), "nested");
}

TEST(Stats, WorkerThreadsOnlyExcludesCoordinators) {
  TraceBuilder b;
  b.name_object(9, "Q");
  b.thread(0).start(0).create(0, 1).create(0, 2).join(1, 0, 18).join(2, 18, 19).exit(20);
  b.thread(1).start(0, 0).lock(9, 1, 1, 9).exit(18);
  b.thread(2).start(0, 0).lock(9, 2, 9, 15).exit(19);
  const trace::Trace t = b.finish();

  Options workers_only;
  workers_only.stats.worker_threads_only = true;
  const AnalysisResult with_workers = test_support::analyze(t, workers_only);
  EXPECT_EQ(with_workers.worker_threads, 2u);

  Options all_threads;
  all_threads.stats.worker_threads_only = false;
  const AnalysisResult with_all = test_support::analyze(t, all_threads);
  EXPECT_EQ(with_all.worker_threads, 3u);

  const LockStats* q_workers = with_workers.find_lock("Q");
  const LockStats* q_all = with_all.find_lock("Q");
  ASSERT_NE(q_workers, nullptr);
  ASSERT_NE(q_all, nullptr);
  EXPECT_DOUBLE_EQ(q_workers->avg_invocations, 1.0);
  EXPECT_NEAR(q_all->avg_invocations, 2.0 / 3.0, 1e-12);
}

TEST(Stats, LocksSortedByCpHoldTime) {
  TraceBuilder b;
  b.name_object(1, "small");
  b.name_object(2, "big");
  b.thread(0).start(0).lock(1, 0, 0, 2).lock(2, 3, 3, 15).exit(20);
  const AnalysisResult result = test_support::analyze(b.finish());
  ASSERT_EQ(result.locks.size(), 2u);
  EXPECT_EQ(result.locks[0].name, "big");
  EXPECT_EQ(result.locks[1].name, "small");
}

TEST(Stats, RankingBreaksTiesByNameThenId) {
  // Thread 0 runs last and never blocks, so the path is its whole life
  // and each of its 5-ns sections is on it: every lock but 70 has the
  // same CP hold time, and all but 60 the same total wait. Lock 60's wait
  // comes from threads 1 and 2, which contend for it off the path.
  TraceBuilder b;
  b.name_object(10, "c");
  b.name_object(20, "b");
  b.name_object(30, "a");
  b.name_object(40, "b");  // the same name as lock 20
  b.name_object(60, "zz");
  b.name_object(70, "zzz");
  b.thread(0)
      .start(0)
      .lock_uncontended(10, 100, 105)
      .lock_uncontended(20, 110, 115)
      .lock_uncontended(30, 120, 125)
      .lock_uncontended(40, 130, 135)
      .lock_uncontended(50, 140, 145)  // unnamed: "mutex@50"
      .lock_uncontended(60, 150, 155)
      .lock_uncontended(70, 160, 170)
      .exit(200);
  b.thread(1).start(0, trace::kNoThread).lock(60, 0, 0, 10).exit(20);
  b.thread(2).start(0, trace::kNoThread).lock(60, 2, 10, 12).exit(20);
  const trace::Trace t = b.finish();
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.execution.num_threads = workers;
    const AnalysisResult result = test_support::analyze(t, options);
    // Hold first, then wait, then name, then id.
    const std::vector<std::pair<std::string, trace::ObjectId>> want = {
        {"zzz", 70}, {"zz", 60}, {"a", 30}, {"b", 20},
        {"b", 40},   {"c", 10},  {"mutex@50", 50}};
    ASSERT_EQ(result.locks.size(), want.size()) << workers;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(result.locks[k].name, want[k].first) << workers << " #" << k;
      EXPECT_EQ(result.locks[k].id, want[k].second) << workers << " #" << k;
    }
    EXPECT_EQ(result.locks[1].cp_hold_time, result.locks[2].cp_hold_time);
    EXPECT_GT(result.locks[1].total_wait, 0u);
    EXPECT_EQ(result.locks[2].total_wait, 0u);
  }
}

TEST(Stats, BarrierStatsAggregate) {
  // T0 blocks at the barrier and finishes last, so the walk crosses the
  // barrier into the last arriver T1.
  TraceBuilder b;
  b.name_object(7, "pbar");
  b.thread(0).start(0).barrier(7, 2, 8, 0).exit(12);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 8, 8, 0).exit(10);
  const AnalysisResult result = test_support::analyze(b.finish_unchecked());
  ASSERT_EQ(result.barriers.size(), 1u);
  const BarrierStats& bs = result.barriers[0];
  EXPECT_EQ(bs.name, "pbar");
  EXPECT_EQ(bs.episodes, 1u);
  EXPECT_EQ(bs.waits, 2u);
  EXPECT_EQ(bs.total_wait_time, 6u);  // T0 waited 2..8
  EXPECT_EQ(bs.cp_jumps, 1u);
}

TEST(Stats, CondStatsAggregate) {
  TraceBuilder b;
  b.name_object(8, "cv");
  auto waiter = b.thread(0).start(0);
  waiter.acquire(4, 1).acquired(4, 1, false);
  waiter.cond_wait(8, 4, 2, 9);
  waiter.released(4, 10).exit(15);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(10);
  const AnalysisResult result = test_support::analyze(b.finish_unchecked());
  ASSERT_EQ(result.conds.size(), 1u);
  EXPECT_EQ(result.conds[0].waits, 1u);
  EXPECT_EQ(result.conds[0].signals, 1u);
  EXPECT_EQ(result.conds[0].total_wait_time, 7u);
  EXPECT_EQ(result.conds[0].cp_jumps, 1u);
}

TEST(Stats, ThreadStatsComputed) {
  const AnalysisResult result = test_support::analyze(handoff_trace());
  ASSERT_EQ(result.threads.size(), 2u);
  EXPECT_EQ(result.threads[0].duration, 10u);
  EXPECT_EQ(result.threads[1].duration, 20u);
  EXPECT_EQ(result.threads[1].lock_wait_time, 5u);
  EXPECT_EQ(result.threads[0].lock_hold_time, 6u);
  EXPECT_GT(result.threads[1].cp_time, 0u);
}

TEST(Stats, FindLockReturnsNullForUnknown) {
  const AnalysisResult result = test_support::analyze(handoff_trace());
  EXPECT_EQ(result.find_lock("nonexistent"), nullptr);
}

TEST(Stats, UnnamedLockGetsDisplayName) {
  TraceBuilder b;
  b.thread(0).start(0).lock(1234, 1, 1, 4).exit(10);
  const AnalysisResult result = test_support::analyze(b.finish());
  ASSERT_EQ(result.locks.size(), 1u);
  EXPECT_EQ(result.locks[0].name, "mutex@1234");
}

}  // namespace
}  // namespace cla::analysis

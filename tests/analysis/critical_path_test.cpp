#include "cla/analysis/critical_path.hpp"

#include <gtest/gtest.h>

#include "cla/trace/builder.hpp"

namespace cla::analysis {
namespace {

using trace::TraceBuilder;

CriticalPath walk(const trace::Trace& t) {
  const TraceIndex index(t);
  return compute_critical_path(SegmentDag::build(index, nullptr), nullptr);
}

TEST(CriticalPath, SingleThreadCoversWholeExecution) {
  TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(9, 2, 6).exit(10);
  const CriticalPath path = walk(b.finish());
  EXPECT_EQ(path.start_ts, 0u);
  EXPECT_EQ(path.end_ts, 10u);
  EXPECT_EQ(path.length(), 10u);
  ASSERT_EQ(path.intervals.size(), 1u);
  EXPECT_EQ(path.intervals[0].tid, 0u);
  EXPECT_EQ(path.thread_time(0), 10u);
  EXPECT_TRUE(path.jumps.empty());
}

TEST(CriticalPath, LockHandoffMovesPathBetweenThreads) {
  // T0 holds the lock [0,6); T1 blocks from 1 and holds [6,9), exits last.
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 0, 0, 6).exit(7);
  b.thread(1).start(0, trace::kNoThread).lock(9, 1, 6, 9).exit(12);
  const CriticalPath path = walk(b.finish_unchecked());
  EXPECT_EQ(path.length(), 12u);
  EXPECT_EQ(path.last_thread, 1u);
  // Path: T1 [6,12] <- jump over the wait <- T0 [0,6].
  ASSERT_EQ(path.jumps.size(), 1u);
  EXPECT_EQ(path.jumps[0].kind, trace::EventType::MutexAcquired);
  EXPECT_EQ(path.thread_time(1), 6u);
  EXPECT_EQ(path.thread_time(0), 6u);
  // The blocked wait [1,6) of T1 is NOT on the path.
  EXPECT_EQ(path.overlap(1, 1, 6), 0u);
}

TEST(CriticalPath, BarrierPathGoesThroughLastArriver) {
  // T1 arrives late at the barrier; T0 waits. After the barrier T0 runs
  // longest. The path must be: T0's tail <- T1's pre-barrier work.
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 2, 8, 0).exit(20);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 8, 8, 0).exit(10);
  const CriticalPath path = walk(b.finish_unchecked());
  EXPECT_EQ(path.length(), 20u);
  ASSERT_EQ(path.jumps.size(), 1u);
  EXPECT_EQ(path.jumps[0].kind, trace::EventType::BarrierLeave);
  // T0 on path after the barrier (8..20), T1 before it (0..8).
  EXPECT_EQ(path.thread_time(0), 12u);
  EXPECT_EQ(path.thread_time(1), 8u);
  // T0's barrier wait [2,8) is off the path.
  EXPECT_EQ(path.overlap(0, 2, 8), 0u);
}

TEST(CriticalPath, CondSignalChain) {
  TraceBuilder b;
  auto waiter = b.thread(0).start(0);
  waiter.acquire(4, 1).acquired(4, 1, false);
  waiter.cond_wait(8, 4, 2, 9);
  waiter.released(4, 10).exit(15);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(10);
  const CriticalPath path = walk(b.finish_unchecked());
  EXPECT_EQ(path.length(), 15u);
  ASSERT_GE(path.jumps.size(), 1u);
  EXPECT_EQ(path.jumps.back().kind, trace::EventType::CondWaitEnd);
  // Waiter's sleep [2,9) is off the path; the signaler's work is on it.
  EXPECT_EQ(path.overlap(0, 3, 9), 0u);
  EXPECT_EQ(path.thread_time(1), 9u);
}

TEST(CriticalPath, JoinPullsPathIntoWorker) {
  TraceBuilder b;
  b.thread(0).start(0).create(0, 1).join(1, 1, 18).exit(20);
  b.thread(1).start(0, 0).exit(18);
  const CriticalPath path = walk(b.finish());
  EXPECT_EQ(path.length(), 20u);
  // Path: T0 [18,20] <- T1 [0,18] <- T0 create [0,0].
  EXPECT_EQ(path.thread_time(1), 18u);
  EXPECT_EQ(path.thread_time(0), 2u);
  ASSERT_EQ(path.jumps.size(), 2u);
  EXPECT_EQ(path.jumps.back().kind, trace::EventType::JoinEnd);
  EXPECT_EQ(path.jumps.front().kind, trace::EventType::ThreadStart);
}

TEST(CriticalPath, UncontendedWakeupsDoNotJump) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 3).lock(9, 4, 4, 6).exit(8);
  const CriticalPath path = walk(b.finish());
  EXPECT_TRUE(path.jumps.empty());
  EXPECT_EQ(path.thread_time(0), 8u);
}

TEST(CriticalPath, PerThreadIntervalsAreSortedAndDisjoint) {
  // Ping-pong between two threads over one lock.
  TraceBuilder b;
  auto t0 = b.thread(0).start(0);
  auto t1 = b.thread(1).start(0, trace::kNoThread);
  t0.lock(9, 0, 0, 2);
  t1.lock(9, 0, 2, 4);
  t0.lock(9, 2, 4, 6);
  t1.lock(9, 4, 6, 8);
  t0.exit(7);
  t1.exit(9);
  const CriticalPath path = walk(b.finish_unchecked());
  for (const auto& per_thread : path.per_thread) {
    for (std::size_t i = 1; i < per_thread.size(); ++i) {
      EXPECT_GE(per_thread[i].begin_ts, per_thread[i - 1].end_ts);
    }
  }
  EXPECT_EQ(path.length(), 9u);
}

TEST(CriticalPath, OverlapComputesPartialIntersections) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const CriticalPath path = walk(b.finish());
  EXPECT_EQ(path.overlap(0, 0, 10), 10u);
  EXPECT_EQ(path.overlap(0, 5, 7), 2u);
  EXPECT_EQ(path.overlap(0, 8, 20), 2u);
  EXPECT_EQ(path.overlap(0, 12, 20), 0u);
  EXPECT_EQ(path.overlap(0, 7, 7), 0u);   // empty interval
  EXPECT_EQ(path.overlap(5, 0, 10), 0u);  // unknown thread
}

/// A path whose thread 0 runs on `intervals` (sorted, disjoint).
CriticalPath path_on(std::vector<PathInterval> intervals) {
  CriticalPath path;
  path.per_thread.push_back(std::move(intervals));
  return path;
}

/// Feeds every section [begin, end) with begin and end in [0, horizon]
/// to one cursor, begin ascending, and compares each with overlap().
void expect_cursor_matches_overlap(const CriticalPath& path,
                                   std::uint64_t horizon, const char* label) {
  OverlapCursor cursor(path.per_thread[0]);
  for (std::uint64_t begin = 0; begin <= horizon; ++begin) {
    for (std::uint64_t end = 0; end <= horizon; ++end) {
      ASSERT_EQ(cursor.overlap(begin, end), path.overlap(0, begin, end))
          << label << " [" << begin << ", " << end << ")";
    }
  }
}

TEST(CriticalPath, OverlapCursorMatchesOverlapOnCraftedShapes) {
  // Gaps between intervals; every section, nested ones included, is
  // one of the swept [begin, end) pairs.
  expect_cursor_matches_overlap(path_on({{0, 2, 5}, {0, 8, 9}, {0, 12, 20}}),
                                24, "gaps");
  // Zero-length and touching intervals.
  expect_cursor_matches_overlap(
      path_on({{0, 0, 5}, {0, 5, 5}, {0, 5, 10}, {0, 12, 12}, {0, 14, 14}, {0, 14, 18}}),
      20, "zero-length and touching");
  // Everything before the first interval, and after the last.
  expect_cursor_matches_overlap(path_on({{0, 10, 12}}), 16, "one late interval");
  expect_cursor_matches_overlap(path_on({}), 4, "no intervals");

  // Named shapes, fed in begin order to one cursor.
  const CriticalPath path = path_on({{0, 10, 20}, {0, 30, 40}, {0, 50, 60}});
  OverlapCursor cursor(path.per_thread[0]);
  EXPECT_EQ(cursor.overlap(0, 5), 0u);     // before the first interval
  EXPECT_EQ(cursor.overlap(2, 10), 0u);    // ends where it begins
  EXPECT_EQ(cursor.overlap(12, 55), 23u);  // spans three intervals
  EXPECT_EQ(cursor.overlap(14, 18), 4u);   // nested in the one above
  EXPECT_EQ(cursor.overlap(35, 35), 0u);   // zero-length section
  EXPECT_EQ(cursor.overlap(35, 70), 15u);  // past the last interval
  EXPECT_EQ(path.overlap(0, 12, 55), 23u);
  EXPECT_EQ(path.overlap(0, 14, 18), 4u);
}

TEST(CriticalPath, LastFinishedThreadEndsThePath) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  b.thread(1).start(0, trace::kNoThread).exit(30);
  b.thread(2).start(0, trace::kNoThread).exit(20);
  const CriticalPath path = walk(b.finish_unchecked());
  EXPECT_EQ(path.last_thread, 1u);
  EXPECT_EQ(path.end_ts, 30u);
}

TEST(CriticalPath, SumOfIntervalsDoesNotExceedLength) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 0, 0, 6).exit(7);
  b.thread(1).start(0, trace::kNoThread).lock(9, 1, 6, 9).exit(12);
  const CriticalPath path = walk(b.finish_unchecked());
  std::uint64_t total = 0;
  for (const auto& iv : path.intervals) total += iv.length();
  EXPECT_LE(total, path.length());
}

}  // namespace
}  // namespace cla::analysis

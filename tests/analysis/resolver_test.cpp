#include "cla/analysis/resolver.hpp"

#include <gtest/gtest.h>

#include "cla/trace/builder.hpp"

namespace cla::analysis {
namespace {

using trace::TraceBuilder;

TEST(Resolver, UncontendedAcquireDoesNotBlock) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).exit(10);
  const trace::Trace t = b.finish();
  const TraceIndex index(t);
  const Resolution r = resolve_wakeup(index, 0, 2);  // MutexAcquired
  EXPECT_FALSE(r.blocked);
  EXPECT_FALSE(r.releaser.valid());
}

TEST(Resolver, ContendedAcquireResolvesToPreviousHolder) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 0, 0, 5).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 1, 5, 9).exit(20);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const Resolution r = resolve_wakeup(index, 1, 2);  // thread 1's MutexAcquired
  EXPECT_TRUE(r.blocked);
  ASSERT_TRUE(r.releaser.valid());
  EXPECT_EQ(r.releaser.tid, 0u);
  EXPECT_EQ(t.thread_events(0)[r.releaser.index].type,
            trace::EventType::MutexReleased);
}

TEST(Resolver, FirstContendedAcquireWithoutPredecessorHasNoReleaser) {
  TraceBuilder b;  // contended flag set but nobody held the lock before
  b.thread(0).start(0).lock(9, 1, 3, 5).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  const Resolution r = resolve_wakeup(index, 0, 2);
  EXPECT_TRUE(r.blocked);
  EXPECT_FALSE(r.releaser.valid());
}

TEST(Resolver, BarrierBlockedThreadsResolveToLastArriver) {
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 2, 6, 0).exit(10);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 6, 6, 0).exit(10);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  // Thread 0 arrived at 2, left at 6 -> blocked, released by T1's arrival.
  const Resolution r0 = resolve_wakeup(index, 0, 2);  // BarrierLeave
  EXPECT_TRUE(r0.blocked);
  ASSERT_TRUE(r0.releaser.valid());
  EXPECT_EQ(r0.releaser.tid, 1u);
  EXPECT_EQ(t.thread_events(1)[r0.releaser.index].type,
            trace::EventType::BarrierArrive);
  // The last arriver itself never blocked.
  const Resolution r1 = resolve_wakeup(index, 1, 2);
  EXPECT_FALSE(r1.blocked);
}

TEST(Resolver, BarrierEpisodesResolveIndependently) {
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 2, 6, 0).barrier(7, 8, 8, 1).exit(12);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 6, 6, 0).barrier(7, 7, 8, 1).exit(12);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  // Episode 1: thread 0 arrives last (8); thread 1 blocked.
  const Resolution r1 = resolve_wakeup(index, 1, 4);  // second BarrierLeave of T1
  EXPECT_TRUE(r1.blocked);
  ASSERT_TRUE(r1.releaser.valid());
  EXPECT_EQ(r1.releaser.tid, 0u);
  const Resolution r0 = resolve_wakeup(index, 0, 4);
  EXPECT_FALSE(r0.blocked);
}

TEST(Resolver, CondWaitResolvesToMatchingSignal) {
  TraceBuilder b;
  auto waiter = b.thread(0).start(0);
  waiter.acquire(4, 1).acquired(4, 1, false);
  waiter.cond_wait(8, 4, 2, 9);
  waiter.released(4, 10).exit(12);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(11);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  // CondWaitEnd is event index 5 of thread 0.
  const Resolution r = resolve_wakeup(index, 0, 5);
  EXPECT_TRUE(r.blocked);
  ASSERT_TRUE(r.releaser.valid());
  EXPECT_EQ(r.releaser.tid, 1u);
  EXPECT_EQ(t.thread_events(1)[r.releaser.index].type,
            trace::EventType::CondSignal);
}

TEST(Resolver, CondWaitPicksLatestSignalInsideWindow) {
  TraceBuilder b;
  auto waiter = b.thread(0).start(0);
  waiter.acquire(4, 1).acquired(4, 1, false);
  waiter.cond_wait(8, 4, 2, 9);
  waiter.released(4, 10).exit(12);
  b.thread(1)
      .start(0, trace::kNoThread)
      .cond_signal(8, 4)
      .cond_signal(8, 8)
      .cond_signal(8, 11)  // after the wake: must not match
      .exit(12);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const Resolution r = resolve_wakeup(index, 0, 5);
  ASSERT_TRUE(r.releaser.valid());
  // index 2 = the t=8 signal (start, signal@4, signal@8, signal@11, exit)
  EXPECT_EQ(r.releaser.index, 2u);
}

TEST(Resolver, CondWaitIgnoresOwnThreadSignals) {
  TraceBuilder b;
  auto waiter = b.thread(0).start(0);
  waiter.cond_signal(8, 1);  // own earlier signal: cannot wake itself
  waiter.acquire(4, 2).acquired(4, 2, false);
  waiter.cond_wait(8, 4, 3, 9);
  waiter.released(4, 10).exit(12);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 7).exit(11);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const Resolution r = resolve_wakeup(index, 0, 6);  // CondWaitEnd
  ASSERT_TRUE(r.releaser.valid());
  EXPECT_EQ(r.releaser.tid, 1u);
}

TEST(Resolver, JoinBlockedResolvesToTargetExit) {
  TraceBuilder b;
  b.thread(0).start(0).create(0, 1).join(1, 1, 8).exit(10);
  b.thread(1).start(0, 0).exit(8);
  const trace::Trace t = b.finish();
  const TraceIndex index(t);
  const Resolution r = resolve_wakeup(index, 0, 3);  // JoinEnd
  EXPECT_TRUE(r.blocked);
  ASSERT_TRUE(r.releaser.valid());
  EXPECT_EQ(r.releaser.tid, 1u);
  EXPECT_EQ(t.thread_events(1)[r.releaser.index].type,
            trace::EventType::ThreadExit);
}

TEST(Resolver, JoinOfAlreadyFinishedThreadDoesNotBlock) {
  TraceBuilder b;
  b.thread(0).start(0).create(0, 1).join(1, 9, 9).exit(10);
  b.thread(1).start(0, 0).exit(5);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  const Resolution r = resolve_wakeup(index, 0, 3);
  EXPECT_FALSE(r.blocked);
}

TEST(Resolver, ThreadStartResolvesToParentCreate) {
  TraceBuilder b;
  b.thread(0).start(0).create(2, 1).join(1, 3, 9).exit(10);
  b.thread(1).start(2, 0).exit(8);
  const trace::Trace t = b.finish();
  const TraceIndex index(t);
  const Resolution r = resolve_wakeup(index, 1, 0);  // ThreadStart of T1
  EXPECT_TRUE(r.blocked);
  ASSERT_TRUE(r.releaser.valid());
  EXPECT_EQ(r.releaser.tid, 0u);
  EXPECT_EQ(t.thread_events(0)[r.releaser.index].type,
            trace::EventType::ThreadCreate);
}

TEST(Resolver, InitialThreadStartHasNoReleaser) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  const Resolution r = resolve_wakeup(index, 0, 0);
  EXPECT_FALSE(r.blocked);
  EXPECT_FALSE(r.releaser.valid());
}

}  // namespace
}  // namespace cla::analysis

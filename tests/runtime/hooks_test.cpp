// Real-pthread instrumentation wrappers: run actual threads, verify the
// emitted trace follows the Fig. 4 protocol and analyzes cleanly.
#include "cla/runtime/hooks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "support/analyze.hpp"
#include "support/recording.hpp"
#include "support/thread_state.hpp"

namespace cla::rt {
namespace {

// Each case records one session of the process-wide recorder.
class HooksTest : public ::testing::Test {
 protected:
  test_support::RecordingSession session_;
};

TEST_F(HooksTest, MutexProtocolEventsInOrder) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  mutex.lock();
  mutex.unlock();
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  const auto events = t.thread_events(0);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[1].type, trace::EventType::MutexAcquire);
  EXPECT_EQ(events[2].type, trace::EventType::MutexAcquired);
  EXPECT_EQ(events[2].arg, 0u);  // uncontended via trylock fast path
  EXPECT_EQ(events[3].type, trace::EventType::MutexReleased);
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, ContendedLockSetsContendedFlag) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  // Start gate: worker 0 takes the lock and keeps it until worker 1 is
  // asleep on it, so the workers overlap and worker 1's first acquisition
  // contends however the two are scheduled.
  std::atomic<bool> gate_held{false};
  std::atomic<pid_t> waiter{0};
  run_instrumented_threads(2, [&](std::uint32_t me) {
    if (me == 0) {
      mutex.lock();
      gate_held.store(true);
      while (waiter.load() == 0 ||
             !test_support::thread_asleep(waiter.load())) {
        std::this_thread::yield();
      }
      mutex.unlock();
    } else {
      while (!gate_held.load()) std::this_thread::yield();
      waiter.store(test_support::current_tid());
      mutex.lock();
      mutex.unlock();
    }
    for (int i = 0; i < 200; ++i) {
      mutex.lock();
      // Real work plus a yield inside the critical section, so the peer
      // reliably observes EBUSY even on a single-CPU machine.
      volatile int sink = 0;
      for (int k = 0; k < 500; ++k) sink += k;
      std::this_thread::yield();
      mutex.unlock();
    }
  });
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  std::size_t contended = 0;
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const auto& e : t.thread_events(tid)) {
      if (e.type == trace::EventType::MutexAcquired && e.arg == 1) ++contended;
    }
  }
  // With 2 threads hammering one lock, at least some acquisitions contend
  // (even on a single-CPU box, preemption inside the CS causes EBUSY).
  EXPECT_GT(contended, 0u);
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, BarrierRecordsEpisodes) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedBarrier barrier(2, "bar");
  run_instrumented_threads(2, [&](std::uint32_t) {
    barrier.wait();
    barrier.wait();
  });
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  std::set<std::uint64_t> episodes;
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const auto& e : t.thread_events(tid)) {
      if (e.type == trace::EventType::BarrierArrive) episodes.insert(e.arg);
    }
  }
  EXPECT_EQ(episodes, (std::set<std::uint64_t>{0, 1}));
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, CondVarProtocolAnalyzable) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  InstrumentedCond cond("cv");
  bool ready = false;
  std::atomic<pid_t> waiter{0};
  run_instrumented_threads(2, [&](std::uint32_t me) {
    if (me == 0) {
      waiter.store(test_support::current_tid());
      mutex.lock();
      while (!ready) cond.wait(mutex);
      mutex.unlock();
    } else {
      // Let the waiter fall asleep in its wait first: nothing else puts
      // it to sleep, as the mutex is free until we take it below.
      while (waiter.load() == 0 ||
             !test_support::thread_asleep(waiter.load())) {
        std::this_thread::yield();
      }
      mutex.lock();
      ready = true;
      mutex.unlock();
      cond.signal();
    }
  });
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  EXPECT_NO_THROW(t.validate());
  const auto result = test_support::analyze(t);
  EXPECT_GT(result.completion_time, 0u);
  ASSERT_EQ(result.conds.size(), 1u);
  EXPECT_GE(result.conds[0].waits, 1u);
  EXPECT_GE(result.conds[0].signals, 1u);
}

TEST_F(HooksTest, CoordinatorRecordsCreateAndJoinEdges) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  run_instrumented_threads(3, [&](std::uint32_t) {
    volatile int sink = 0;
    for (int k = 0; k < 1000; ++k) sink += k;
  });
  recorder.thread_exit();
  const trace::Trace t = session_.finish();
  EXPECT_EQ(t.thread_count(), 4u);
  std::size_t creates = 0;
  std::size_t join_ends = 0;
  for (const auto& e : t.thread_events(0)) {
    creates += e.type == trace::EventType::ThreadCreate ? 1 : 0;
    join_ends += e.type == trace::EventType::JoinEnd ? 1 : 0;
  }
  EXPECT_EQ(creates, 3u);
  EXPECT_EQ(join_ends, 3u);
  // Full pipeline: the real-thread trace analyzes without errors.
  const auto result = test_support::analyze(t);
  EXPECT_EQ(result.completion_time, t.end_ts() - t.start_ts());
}

}  // namespace
}  // namespace cla::rt

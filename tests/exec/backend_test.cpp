// Backend abstraction: the same workload body must produce structurally
// equivalent, analyzable traces on the simulator and on real pthreads.
#include "cla/exec/backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "support/analyze.hpp"
#include "cla/util/error.hpp"

namespace cla::exec {
namespace {

void simple_workload(Backend& backend, std::uint32_t threads) {
  const MutexHandle lock = backend.create_mutex("L");
  const BarrierHandle barrier = backend.create_barrier("B", threads);
  backend.run(threads, [&](Ctx& ctx) {
    ctx.barrier_wait(barrier);
    for (int i = 0; i < 5; ++i) {
      ctx.compute(100);
      ScopedLock guard(ctx, lock);
      ctx.compute(50);
    }
  });
}

class BackendParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendParamTest, RunsAndProducesValidTrace) {
  auto backend = make_backend(GetParam());
  simple_workload(*backend, 3);
  trace::Trace trace = backend->take_trace();
  EXPECT_NO_THROW(trace.validate());
  EXPECT_EQ(trace.thread_count(), 4u);  // coordinator + 3 workers
  EXPECT_GT(backend->completion_time(), 0u);
}

TEST_P(BackendParamTest, TraceHasExpectedInvocationCounts) {
  auto backend = make_backend(GetParam());
  simple_workload(*backend, 3);
  const auto result = test_support::analyze(backend->take_trace());
  const analysis::LockStats* lock = result.find_lock("L");
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->invocations, 15u);  // 3 threads x 5
  ASSERT_EQ(result.barriers.size(), 1u);
  EXPECT_EQ(result.barriers[0].waits, 3u);
  EXPECT_EQ(result.worker_threads, 3u);
}

TEST_P(BackendParamTest, WorkerIndicesAreDense) {
  auto backend = make_backend(GetParam());
  std::atomic<std::uint32_t> mask{0};
  backend->run(4, [&](Ctx& ctx) {
    mask.fetch_or(1u << ctx.worker_index(), std::memory_order_relaxed);
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParamTest,
                         ::testing::Values("sim", "pthread"));

TEST(Backend, UnknownNameThrows) {
  EXPECT_THROW(make_backend("quantum"), util::Error);
}

TEST(Backend, ZeroThreadsRejected) {
  auto backend = make_sim_backend();
  EXPECT_THROW(backend->run(0, [](Ctx&) {}), util::Error);
}

TEST(SimBackend, VirtualCompletionTimeIsExact) {
  auto backend = make_sim_backend();
  const MutexHandle lock = backend->create_mutex("L");
  backend->run(2, [&](Ctx& ctx) {
    ScopedLock guard(ctx, lock);
    ctx.compute(30);
  });
  EXPECT_EQ(backend->completion_time(), 60u);  // serialized sections
}

TEST(SimBackend, DeterministicAcrossInstances) {
  auto run_once = [] {
    auto backend = make_sim_backend();
    simple_workload(*backend, 4);
    return backend->completion_time();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PthreadBackend, ComputeUnitsScaleRuntime) {
  auto backend = make_pthread_backend(/*compute_unit_ns=*/10);
  backend->run(1, [&](Ctx& ctx) { ctx.compute(1'000'000); });  // ~10 ms
  EXPECT_GE(backend->completion_time(), 5'000'000u);
}

TEST(PthreadBackend, BackToBackRunsRecordTwoValidSessions) {
  // Each pthread backend records one session of the process-wide
  // recorder, and the next opens a fresh one, also after a backend that
  // was dropped without running.
  { auto idle = make_pthread_backend(); }
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    auto backend = make_pthread_backend();
    simple_workload(*backend, 3);
    const trace::Trace trace = backend->take_trace();
    EXPECT_NO_THROW(trace.validate());
    EXPECT_EQ(trace.thread_count(), 4u);
    EXPECT_EQ(trace.dropped_events(), 0u);
    const auto result = test_support::analyze(trace);
    const analysis::LockStats* lock = result.find_lock("L");
    ASSERT_NE(lock, nullptr);
    EXPECT_EQ(lock->invocations, 15u);
  }
}

}  // namespace
}  // namespace cla::exec

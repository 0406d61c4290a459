// Case-study workloads: every workload runs on the simulator, emits a
// valid trace, and reproduces the qualitative property the paper reports
// for its application.
#include "cla/workloads/workload.hpp"

#include <gtest/gtest.h>

#include "support/analyze.hpp"
#include "cla/trace/clip.hpp"
#include "cla/util/error.hpp"

namespace cla::workloads {
namespace {

WorkloadConfig small_config(std::uint32_t threads) {
  WorkloadConfig config;
  config.threads = threads;
  config.backend = "sim";
  config.scale = 0.25;  // keep CI runs quick
  return config;
}

// ---- generic properties for every registered workload -------------------

class AllWorkloadsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllWorkloadsTest, RunsAndValidates) {
  const WorkloadResult result = run_workload(GetParam(), small_config(4));
  EXPECT_GT(result.completion_time, 0u);
  EXPECT_GT(result.trace.event_count(), 0u);
  EXPECT_NO_THROW(result.trace.validate());
}

TEST_P(AllWorkloadsTest, AnalysisCompletes) {
  const WorkloadResult run = run_workload(GetParam(), small_config(4));
  const auto result = test_support::analyze(run.trace);
  EXPECT_EQ(result.completion_time, run.completion_time);
  EXPECT_FALSE(result.locks.empty());
}

TEST_P(AllWorkloadsTest, DeterministicForFixedSeed) {
  const WorkloadResult a = run_workload(GetParam(), small_config(4));
  const WorkloadResult b = run_workload(GetParam(), small_config(4));
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.trace.event_count(), b.trace.event_count());
}

TEST_P(AllWorkloadsTest, SeedChangesExecution) {
  if (std::string(GetParam()) == "micro") {
    GTEST_SKIP() << "the Fig. 5 micro-benchmark is deterministic by design";
  }
  WorkloadConfig config = small_config(4);
  const WorkloadResult a = run_workload(GetParam(), config);
  config.seed = 777;
  const WorkloadResult b = run_workload(GetParam(), config);
  // Different seed -> different work sizes -> different completion time
  // (identical times would indicate the seed is ignored).
  EXPECT_NE(a.completion_time, b.completion_time);
}

INSTANTIATE_TEST_SUITE_P(Registered, AllWorkloadsTest,
                         ::testing::Values("micro", "radiosity", "tsp", "uts",
                                           "water", "volrend", "raytrace",
                                           "ldap"));

// ---- registry ------------------------------------------------------------

TEST(Registry, ListContainsAllEight) {
  const auto infos = list_workloads();
  EXPECT_GE(infos.size(), 8u);
  for (const auto& info : infos) EXPECT_FALSE(info.description.empty());
}

TEST(Registry, UnknownWorkloadThrows) {
  EXPECT_THROW(run_workload("nope", WorkloadConfig{}), util::Error);
}

// ---- per-workload paper properties ----------------------------------------

TEST(Micro, CpTimeMatchesFig6Exactly) {
  WorkloadConfig config;
  config.threads = 4;
  const auto run = run_workload("micro", config);
  const auto result = test_support::analyze(run.trace);
  const auto* l1 = result.find_lock("L1");
  const auto* l2 = result.find_lock("L2");
  ASSERT_NE(l1, nullptr);
  ASSERT_NE(l2, nullptr);
  // Fig. 6: CP Time L1 = 16.67 %, L2 = 83.33 %.
  EXPECT_NEAR(l1->cp_time_fraction, 1.0 / 6.0, 1e-9);
  EXPECT_NEAR(l2->cp_time_fraction, 5.0 / 6.0, 1e-9);
  // Wait Time ranks them the other way round.
  EXPECT_GT(l1->avg_wait_fraction, l2->avg_wait_fraction);
  // L2: 4 invocations on the path, 3 of them contended.
  EXPECT_EQ(l2->cp_invocations, 4u);
  EXPECT_NEAR(l2->cp_contention_prob, 0.75, 1e-9);
}

TEST(Micro, OptimizingL2BeatsOptimizingL1) {
  WorkloadConfig base;
  base.threads = 4;
  const auto original = run_workload("micro", base);
  WorkloadConfig opt1 = base;
  opt1.params["opt_l1"] = 1;
  WorkloadConfig opt2 = base;
  opt2.params["opt_l2"] = 1;
  const auto with_l1 = run_workload("micro", opt1);
  const auto with_l2 = run_workload("micro", opt2);
  const double speedup_l1 = static_cast<double>(original.completion_time) /
                            static_cast<double>(with_l1.completion_time);
  const double speedup_l2 = static_cast<double>(original.completion_time) /
                            static_cast<double>(with_l2.completion_time);
  // Fig. 6's validation: the same optimization effort helps more on L2 —
  // the lock critical lock analysis singles out.
  EXPECT_GT(speedup_l2, speedup_l1);
  EXPECT_GT(speedup_l1, 1.0);
}

TEST(Radiosity, RecordsClippablePhases) {
  WorkloadConfig config = small_config(4);
  config.params["phases"] = 3;
  const auto run = run_workload("radiosity", config);
  // Three begin/end pairs were recorded; each clips to a valid trace
  // whose analysis still sees the task-queue locks.
  for (std::size_t phase = 0; phase < 3; ++phase) {
    const trace::Trace clipped =
        trace::clip_to_phase(trace::TraceView(run.trace), phase);
    EXPECT_NO_THROW(clipped.validate()) << "phase " << phase;
    const auto result = test_support::analyze(clipped);
    EXPECT_NE(result.find_lock("tq[0].qlock"), nullptr) << "phase " << phase;
    EXPECT_LT(result.completion_time, run.completion_time);
  }
  EXPECT_FALSE(trace::find_phase(trace::TraceView(run.trace), 3).has_value());
}

TEST(Radiosity, Tq0DominatesAtHighThreadCounts) {
  WorkloadConfig config = small_config(16);
  const auto run = run_workload("radiosity", config);
  const auto result = test_support::analyze(run.trace);
  ASSERT_FALSE(result.locks.empty());
  EXPECT_EQ(result.locks.front().name, "tq[0].qlock");
  const auto* tq0 = result.find_lock("tq[0].qlock");
  // The signature divergence: CP Time far above Wait Time.
  EXPECT_GT(tq0->cp_time_fraction, tq0->avg_wait_fraction);
  // Invocations on the path far exceed the per-thread average (Fig. 10).
  EXPECT_GT(tq0->invocation_increase, 2.0);
}

TEST(Radiosity, OptimizedVariantUsesSplitLocksAndIsFaster) {
  // Full problem size at a high thread count: the regime where the paper
  // measured its 7 % improvement (small scales are not hub-bound).
  WorkloadConfig config;
  config.threads = 24;
  const auto original = run_workload("radiosity", config);
  config.optimized = true;
  const auto optimized = run_workload("radiosity", config);
  EXPECT_LT(optimized.completion_time, original.completion_time);
  const auto result = test_support::analyze(optimized.trace);
  EXPECT_NE(result.find_lock("tq[0].q_head_lock"), nullptr);
  EXPECT_NE(result.find_lock("tq[0].q_tail_lock"), nullptr);
  EXPECT_EQ(result.find_lock("tq[0].qlock"), nullptr);
}

TEST(Tsp, QlockDominatesCriticalPath) {
  WorkloadConfig config;
  config.threads = 8;
  config.params["cities"] = 8;  // keep the tree small for tests
  const auto run = run_workload("tsp", config);
  const auto result = test_support::analyze(run.trace);
  const auto* qlock = result.find_lock("Q.qlock");
  ASSERT_NE(qlock, nullptr);
  // With the CI-sized 8-city tree Qlock is already the top critical lock;
  // the paper's 68 % figure is reproduced at full size by bench_tsp_opt.
  EXPECT_GT(qlock->cp_time_fraction, 0.05);
  EXPECT_EQ(result.locks.front().name, "Q.qlock");
}

TEST(Tsp, SplitQueueImprovesCompletionTime) {
  WorkloadConfig config;
  config.threads = 8;
  config.params["cities"] = 8;
  const auto original = run_workload("tsp", config);
  config.optimized = true;
  const auto optimized = run_workload("tsp", config);
  EXPECT_LT(optimized.completion_time, original.completion_time);
}

TEST(Uts, HotStackLockOnPathWithoutContention) {
  WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.5;
  const auto run = run_workload("uts", config);
  const auto result = test_support::analyze(run.trace);
  const auto* hot = result.find_lock("stackLock[5].qlock");
  ASSERT_NE(hot, nullptr);
  // The paper's UTS finding: on the critical path with a visible share...
  EXPECT_GT(hot->cp_time_fraction, 0.01);
  // ...but with (almost) no lock contention, so idleness metrics miss it.
  EXPECT_LT(hot->avg_contention_prob, 0.10);
  EXPECT_LT(hot->avg_wait_fraction, 0.01);
}

TEST(Water, BarriersDominateLocksBarelyMatter) {
  WorkloadConfig config;
  config.threads = 8;
  const auto run = run_workload("water", config);
  const auto result = test_support::analyze(run.trace);
  const auto* index_lock = result.find_lock("gl->IndexLock");
  ASSERT_NE(index_lock, nullptr);
  EXPECT_LT(index_lock->cp_time_fraction, 0.15);
  EXPECT_TRUE(index_lock->is_critical());  // still on the path
  ASSERT_FALSE(result.barriers.empty());
  EXPECT_GT(result.barriers.front().cp_jumps, 0u);
}

TEST(Volrend, GlobalQlockModerate) {
  WorkloadConfig config = small_config(8);
  const auto run = run_workload("volrend", config);
  const auto result = test_support::analyze(run.trace);
  const auto* qlock = result.find_lock("Global->QLock");
  ASSERT_NE(qlock, nullptr);
  EXPECT_GT(qlock->cp_time_fraction, 0.01);
  EXPECT_LT(qlock->cp_time_fraction, 0.5);
}

TEST(Raytrace, MemLockCpTimeExceedsWaitTime) {
  WorkloadConfig config = small_config(8);
  const auto run = run_workload("raytrace", config);
  const auto result = test_support::analyze(run.trace);
  const auto* mem = result.find_lock("mem");
  ASSERT_NE(mem, nullptr);
  // Fig. 8 discussion: Wait Time significantly underestimates mem.
  EXPECT_GT(mem->cp_time_fraction, mem->avg_wait_fraction);
  EXPECT_TRUE(mem->is_critical());
}

TEST(Ldap, NoSignificantCriticalSectionBottleneck) {
  WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.2;
  const auto run = run_workload("ldap", config);
  const auto result = test_support::analyze(run.trace);
  // The paper's negative result: every lock is a small fraction of the
  // critical path.
  for (const auto& lock : result.locks) {
    EXPECT_LT(lock.cp_time_fraction, 0.10) << lock.name;
  }
}

TEST(Ldap, EntryLocksAreFineGrained) {
  WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.1;
  const auto run = run_workload("ldap", config);
  const auto result = test_support::analyze(run.trace);
  std::size_t entry_locks = 0;
  for (const auto& lock : result.locks) {
    if (lock.name.rfind("entry_lock[", 0) == 0) {
      ++entry_locks;
      // Fine-grained: each entry lock is a negligible slice of the path.
      EXPECT_LT(lock.cp_time_fraction, 0.01) << lock.name;
      EXPECT_LT(lock.avg_wait_fraction, 0.01) << lock.name;
    }
  }
  EXPECT_GT(entry_locks, 10u);
}

}  // namespace
}  // namespace cla::workloads

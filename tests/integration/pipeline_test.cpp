// Whole-pipeline integration: workload -> trace file -> reload -> analyze
// must give identical statistics, on both execution backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "cla/core/cla.hpp"
#include "support/analyze.hpp"
#include "support/thread_state.hpp"

namespace cla {
namespace {

TEST(Pipeline, TraceFileRoundTripPreservesAnalysis) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  const auto [run, direct, profile] = run_and_analyze("micro", config);

  const auto path =
      (std::filesystem::temp_directory_path() / "cla_pipeline.clat").string();
  trace::write_trace_file(run.trace, path);
  const trace::Trace reloaded = trace::read_trace_file(path);
  std::remove(path.c_str());

  const AnalysisResult from_file = test_support::analyze(reloaded);
  EXPECT_EQ(from_file.completion_time, direct.completion_time);
  ASSERT_EQ(from_file.locks.size(), direct.locks.size());
  for (std::size_t i = 0; i < direct.locks.size(); ++i) {
    EXPECT_EQ(from_file.locks[i].name, direct.locks[i].name);
    EXPECT_EQ(from_file.locks[i].cp_hold_time, direct.locks[i].cp_hold_time);
    EXPECT_EQ(from_file.locks[i].cp_invocations, direct.locks[i].cp_invocations);
    EXPECT_EQ(from_file.locks[i].invocations, direct.locks[i].invocations);
    EXPECT_EQ(from_file.locks[i].total_wait, direct.locks[i].total_wait);
  }
}

TEST(Pipeline, RunAndAnalyzeConvenienceMatchesManualSteps) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  const auto combined = run_and_analyze("micro", config);
  const auto manual_run = workloads::run_workload("micro", config);
  const auto manual_result = test_support::analyze(manual_run.trace);
  EXPECT_EQ(combined.analysis.completion_time, manual_result.completion_time);
  EXPECT_EQ(combined.analysis.locks.size(), manual_result.locks.size());
}

TEST(Pipeline, PthreadBackendEndToEnd) {
  // The micro workload on real threads, driven here so that each worker
  // finishes only once the main thread sleeps in its join. Otherwise a
  // main thread descheduled for the whole run never blocks in a join,
  // the path never leaves it, and no lock lies on the path. Once every
  // worker has started, the join is the only place main can sleep.
  workloads::WorkloadConfig config;
  config.threads = 2;
  config.backend = "pthread";
  const std::uint64_t cs1 = 200000;  // ~hundreds of microseconds per section
  const std::uint64_t cs2 = 250000;
  auto backend = workloads::make_workload_backend(config);
  const exec::MutexHandle l1_handle = backend->create_mutex("L1");
  const exec::MutexHandle l2_handle = backend->create_mutex("L2");
  const pid_t main_tid = test_support::current_tid();
  std::atomic<std::uint32_t> started{0};
  backend->run(config.threads, [&](exec::Ctx& ctx) {
    started.fetch_add(1);
    {
      exec::ScopedLock guard(ctx, l1_handle);
      ctx.compute(cs1);
    }
    {
      exec::ScopedLock guard(ctx, l2_handle);
      ctx.compute(cs2);
    }
    while (started.load() < config.threads ||
           !test_support::thread_asleep(main_tid)) {
      std::this_thread::yield();
    }
  });
  workloads::WorkloadResult run;
  run.completion_time = backend->completion_time();
  run.trace = backend->take_trace();
  const AnalysisResult result = test_support::analyze(run.trace);
  EXPECT_GT(run.completion_time, 0u);
  // On a loaded single-core machine, a preemption inside either critical
  // section can dwarf the intended 4:5 work ratio, so even the ranking is
  // not deterministic here. Assert the structural pipeline properties;
  // ranking and shares are covered deterministically on the sim backend.
  const auto* l1 = result.find_lock("L1");
  const auto* l2 = result.find_lock("L2");
  ASSERT_NE(l1, nullptr);
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l1->invocations, 2u);
  EXPECT_EQ(l2->invocations, 2u);
  EXPECT_GT(l2->cp_time_fraction + l1->cp_time_fraction, 0.0);
}

TEST(Pipeline, ReportsRenderForRealRuns) {
  workloads::WorkloadConfig config;
  config.threads = 4;
  config.scale = 0.25;
  const auto [run, result, profile] = run_and_analyze("radiosity", config);
  const std::string report = analysis::render_report(result);
  EXPECT_NE(report.find("tq[0].qlock"), std::string::npos);
  EXPECT_NE(report.find("freeInter"), std::string::npos);
  const analysis::TraceIndex index(run.trace);
  const std::string timeline =
      analysis::render_timeline(index, result.path, {.width = 60});
  EXPECT_NE(timeline.find("T1"), std::string::npos);
}

TEST(Pipeline, WhatIfRankingAgreesWithCpRanking) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  const auto [run, result, profile] = run_and_analyze("radiosity", config);
  (void)run;
  const auto ranking = analysis::rank_optimization_targets(result);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front().lock, result.locks.front().name);
}

}  // namespace
}  // namespace cla

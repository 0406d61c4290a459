// Fault-injection integration test: kill a preloaded pthread workload at
// randomized points — fatal signals, _exit, and post-hoc file truncation
// (a flush torn mid-write) — and verify the salvaged trace still analyzes
// and still ranks the known dominant lock first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "support/analyze.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/trace_io.hpp"

namespace {

class CrashResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the tests as concurrent processes.
    trace_path_ = (std::filesystem::temp_directory_path() /
                   (std::string("cla_crash_resilience_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                    ".clat"))
                      .string();
    std::remove(trace_path_.c_str());
    // Deterministic per-run "random" crash points: vary across repetitions
    // via the gtest seed, stay reproducible within one.
    rng_.seed(static_cast<unsigned>(
        ::testing::UnitTest::GetInstance()->random_seed()));
  }
  void TearDown() override { std::remove(trace_path_.c_str()); }

  int run_app(const std::string& mode, int crash_round) const {
    const std::string command =
        "CLA_TRACE_FILE=" + trace_path_ +
        " CLA_BUFFER_EVENTS=256"
        " LD_PRELOAD=" CLA_INTERPOSE_LIB " " CLA_CRASH_APP " " + mode + " " +
        std::to_string(crash_round) + " > /dev/null 2>&1";
    return std::system(command.c_str());
  }

  int random_crash_round() { return 20 + static_cast<int>(rng_() % 100); }

  /// The invariant every salvaged trace must satisfy: it analyzes, and the
  /// big-critical-section lock ranks first by a wide margin (its CS burns
  /// 30x the small lock's, so even a truncated run preserves dominance).
  ///
  /// A trace is held to strict validation unless its recorder counted
  /// drops: with buffers this small a starved flusher can lose a buffer
  /// half, and a trace that declares its own loss is lossy by contract.
  /// The pipeline's strict validate stage degrades to the repair engine
  /// for such a trace, so it is analyzed through that path instead.
  void expect_dominant_lock_ranks_first(const cla::trace::Trace& trace) {
    cla::analysis::Pipeline pipeline;
    pipeline.use_trace(trace);
    if (trace.dropped_events() == 0) {
      ASSERT_NO_THROW(trace.validate());
    } else {
      ASSERT_NO_THROW(pipeline.validate_stage());
    }
    const cla::analysis::AnalysisResult& result = pipeline.result();
    ASSERT_GE(result.locks.size(), 2u);
    const auto& top = result.locks.front();
    // The app's locks are the only repeatedly contended ones; glibc
    // internals show up with a handful of invocations at most.
    EXPECT_GT(top.invocations, 20u);
    std::uint64_t runner_up_hold = 0;
    for (std::size_t i = 1; i < result.locks.size(); ++i) {
      runner_up_hold = std::max(runner_up_hold, result.locks[i].total_hold);
    }
    EXPECT_GT(top.total_hold, 3 * runner_up_hold);
  }

  cla::trace::SalvageResult salvage() const {
    return cla::trace::salvage_trace_file(trace_path_);
  }

  std::string trace_path_;
  std::mt19937 rng_;
};

TEST_F(CrashResilienceTest, CleanRunLoadsStrictlyAndSalvagesLosslessly) {
  ASSERT_EQ(run_app("run", 0), 0);
  const cla::trace::Trace strict = cla::trace::read_trace_file(trace_path_);
  expect_dominant_lock_ranks_first(strict);

  cla::trace::SalvageResult got = salvage();
  // A clean run can still be lossy when the recorder drops events under a
  // flood (its ring is full); the report and the drop count say so.
  const std::string why = got.report.to_string() + "\nrecorder dropped " +
                          std::to_string(strict.dropped_events()) + " events";
  EXPECT_TRUE(got.report.clean_close) << why;
  EXPECT_FALSE(got.report.lossy()) << why;
  EXPECT_EQ(got.trace.event_count(), strict.event_count()) << why;
}

TEST_F(CrashResilienceTest, SegfaultedRunSalvages) {
  ASSERT_NE(run_app("segv", random_crash_round()), 0);
  ASSERT_TRUE(std::filesystem::exists(trace_path_));
  cla::trace::SalvageResult got = salvage();
  EXPECT_FALSE(got.report.clean_close);
  EXPECT_TRUE(got.report.lossy());
  EXPECT_GT(got.report.events_recovered, 100u);
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, AbortedRunSalvages) {
  ASSERT_NE(run_app("abort", random_crash_round()), 0);
  cla::trace::SalvageResult got = salvage();
  EXPECT_FALSE(got.report.clean_close);
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, SigtermedRunSalvages) {
  ASSERT_NE(run_app("term", random_crash_round()), 0);
  cla::trace::SalvageResult got = salvage();
  EXPECT_FALSE(got.report.clean_close);
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, UnderscoreExitRunSalvages) {
  // _exit(7) skips static destructors: only the interposed _exit spill
  // stands between the buffers and the void.
  const int rc = run_app("exit", random_crash_round());
  ASSERT_NE(rc, 0);
  cla::trace::SalvageResult got = salvage();
  EXPECT_FALSE(got.report.clean_close);
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, MidFlushTruncationSalvages) {
  // Simulate a flush torn by power loss / SIGKILL: chop a clean v2 file at
  // an arbitrary byte so the last chunk is incomplete.
  ASSERT_EQ(run_app("run", 0), 0);
  const auto full_size = std::filesystem::file_size(trace_path_);
  ASSERT_GT(full_size, 4096u);
  std::filesystem::resize_file(trace_path_,
                               full_size / 2 + rng_() % (full_size / 4));
  cla::trace::SalvageResult got = salvage();
  EXPECT_TRUE(got.report.lossy());
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, SalvagedTraceMatchesCleanRanking) {
  // The acceptance check: the lock the uninterrupted run ranks first is
  // also ranked first after a crash + salvage (invocation counts differ,
  // dominance must not).
  ASSERT_EQ(run_app("run", 0), 0);
  const cla::trace::Trace clean = cla::trace::read_trace_file(trace_path_);
  const auto clean_result = cla::test_support::analyze(clean);
  ASSERT_FALSE(clean_result.locks.empty());
  const auto clean_top_invocations = clean_result.locks.front().invocations;

  std::remove(trace_path_.c_str());
  ASSERT_NE(run_app("segv", random_crash_round()), 0);
  cla::trace::SalvageResult got = salvage();
  const auto salvaged_result = cla::test_support::analyze(got.trace);
  ASSERT_FALSE(salvaged_result.locks.empty());
  // Same workload, same dominant lock: the big-CS lock has the most
  // acquisitions of any app lock in both runs (4 workers x rounds), and
  // tops both rankings.
  EXPECT_GT(clean_top_invocations, 100u);
  EXPECT_GT(salvaged_result.locks.front().invocations, 20u);
  expect_dominant_lock_ranks_first(clean);
  expect_dominant_lock_ranks_first(got.trace);
}

TEST_F(CrashResilienceTest, SalvageFlagOnPipelineExposesReport) {
  ASSERT_NE(run_app("segv", random_crash_round()), 0);
  cla::analysis::Options options;
  options.load.salvage = true;
  cla::analysis::Pipeline pipeline(options);
  pipeline.load_file(trace_path_);
  ASSERT_TRUE(pipeline.salvage_report().has_value());
  EXPECT_TRUE(pipeline.salvage_report()->lossy());
  const auto& result = pipeline.result();
  EXPECT_GT(result.completion_time, 0u);
  ASSERT_GE(result.locks.size(), 2u);
}

}  // namespace

// Batch analysis against the paper-literal oracle (support/oracle.hpp):
// the critical path must be the oracle's event-by-event walk, and every
// per-lock, per-callsite and per-thread lock figure its fold over the
// sections it paired from the raw event columns, at 1 and 4 workers.
#include <gtest/gtest.h>

#include <string>

#include "cla/analysis/index.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/workloads/workload.hpp"
#include "support/lock_schedule.hpp"
#include "support/oracle.hpp"

namespace cla::analysis {
namespace {

void expect_batch_matches_oracle(const trace::Trace& trace, bool validate,
                                 const std::string& label) {
  const trace::TraceView view(trace);
  const test_support::Oracle oracle(view);
  const TraceIndex index(view);
  const CriticalPath want = test_support::reference_walk(index, oracle);
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = validate;
    options.execution.num_threads = workers;
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    const AnalysisResult& got = pipeline.result();
    const std::string where =
        label + " (" + std::to_string(workers) + " workers)";
    test_support::expect_same_path(want, got.path, where);
    test_support::expect_table2(got, oracle, where);
  }
}

TEST(Oracle, BatchMatchesOnEverySimWorkload) {
  for (const char* name : {"micro", "radiosity", "tsp", "uts", "water",
                           "volrend", "raytrace", "ldap"}) {
    workloads::WorkloadConfig config;
    config.threads = 8;
    config.scale = 0.25;
    expect_batch_matches_oracle(workloads::run_workload(name, config).trace,
                                true, name);
  }
}

TEST(Oracle, BatchMatchesOnNestedLocks) {
  test_support::LockSchedule schedule;
  schedule.nested = true;
  expect_batch_matches_oracle(test_support::scheduled_locks(schedule), false,
                              "nested");
}

TEST(Oracle, BatchMatchesOnCallsites) {
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  expect_batch_matches_oracle(test_support::scheduled_locks(schedule), false,
                              "callsites");
  schedule.long_hold = test_support::scheduled_locks(schedule).end_ts() / 3;
  expect_batch_matches_oracle(test_support::scheduled_locks(schedule), false,
                              "callsites, long hold");
}

TEST(Oracle, BatchMatchesOnARegressingClock) {
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  const trace::Trace plain = test_support::scheduled_locks(schedule);
  const std::size_t n = plain.thread_events(2).size();
  expect_batch_matches_oracle(
      test_support::with_clock_step_back(plain, 2, n / 2, plain.end_ts() / 5),
      false, "regressing thread 2");
}

TEST(Oracle, HeldSectionClosesAtTheThreadsLastEvent) {
  // Thread 0 never releases mutex 7; the oracle, like the index, closes
  // the section at thread 0's last event (t=40), so thread 1's contended
  // acquisition at t=50 is released by event 3 of thread 0.
  trace::TraceBuilder b;
  b.thread(0).start(0).acquire(7, 10).acquired(7, 10, false).exit(40);
  b.thread(1).start(0, trace::kNoThread).lock(7, 20, 50, 60).exit(70);
  const trace::Trace trace = b.finish_unchecked();
  const trace::TraceView view(trace);
  const test_support::Oracle oracle(view);
  ASSERT_EQ(oracle.locks().at(7).size(), 2u);
  EXPECT_EQ(oracle.locks().at(7)[0].released_idx, 3u);
  EXPECT_EQ(oracle.locks().at(7)[0].released_ts, 40u);
  EXPECT_EQ(oracle.releaser(1, 2), (EventRef{0, 3}));
  expect_batch_matches_oracle(trace, false, "held at exit");
}

}  // namespace
}  // namespace cla::analysis

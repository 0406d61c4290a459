// Analysis against the paper-literal oracle (support/oracle.hpp): the
// critical path must be the oracle's event-by-event walk, and every
// per-lock, per-callsite and per-thread lock figure its fold over the
// sections it paired from the raw event columns, at 1 and 4 workers. Batch
// analysis is checked unbounded and under an RSS budget; incremental
// analysis after every round of a trace cut at random points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/rng.hpp"
#include "cla/workloads/workload.hpp"
#include "support/lock_schedule.hpp"
#include "support/oracle.hpp"

namespace cla::analysis {
namespace {

/// `max_rss_mb` != 0 runs the bounded engine under that budget.
void expect_batch_matches_oracle(const trace::Trace& trace, bool validate,
                                 const std::string& label,
                                 std::size_t max_rss_mb = 0) {
  const trace::TraceView view(trace);
  const test_support::Oracle oracle(view);
  const TraceIndex index(view);
  const CriticalPath want = test_support::reference_walk(index, oracle);
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = validate;
    options.execution.num_threads = workers;
    options.limits.max_rss_mb = max_rss_mb;
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    const AnalysisResult& got = pipeline.result();
    const std::string where =
        label + " (" + std::to_string(workers) + " workers)";
    test_support::expect_same_path(want, got.path, where);
    test_support::expect_table2(got, oracle, where);
  }
}

trace::Trace workload_trace(const char* name) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  return workloads::run_workload(name, config).trace;
}

/// The nested, callsite and regressing-clock lock schedules.
std::vector<std::pair<std::string, trace::Trace>> schedules() {
  std::vector<std::pair<std::string, trace::Trace>> out;
  test_support::LockSchedule nested;
  nested.nested = true;
  out.emplace_back("nested", test_support::scheduled_locks(nested));
  test_support::LockSchedule callsites;
  callsites.stacks = true;
  const trace::Trace plain = test_support::scheduled_locks(callsites);
  out.emplace_back("callsites", plain);
  const std::size_t n = plain.thread_events(2).size();
  out.emplace_back("regressing thread 2",
                   test_support::with_clock_step_back(plain, 2, n / 2,
                                                      plain.end_ts() / 5));
  return out;
}

/// Cuts every thread's stream of `full` into `rounds` chunks at points
/// drawn from `seed`, independently per thread, so the rounds are not
/// aligned in time. A cut never falls where the thread's clock steps back
/// (a chunk may not rewind its thread). Names ride on the first chunk.
std::vector<trace::Trace> random_cuts(const trace::Trace& full,
                                      std::size_t rounds, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::Trace> chunks(rounds);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    std::vector<std::size_t> ends;
    for (std::size_t r = 0; r + 1 < rounds; ++r) {
      std::size_t cut = rng.below(events.size() + 1);
      while (cut > 0 && cut < events.size() &&
             events[cut].ts < events[cut - 1].ts) {
        ++cut;
      }
      ends.push_back(cut);
    }
    std::sort(ends.begin(), ends.end());
    ends.push_back(events.size());
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (ends[r] > begin) {
        chunks[r].append_thread_events(tid,
                                       events.subspan(begin, ends[r] - begin));
      }
      begin = ends[r];
    }
  }
  for (const auto& [object, name] : full.object_names()) {
    chunks[0].set_object_name(object, name);
  }
  for (const auto& [tid, name] : full.thread_names()) {
    chunks[0].set_thread_name(tid, name);
  }
  return chunks;
}

/// Feeds `chunks` to one analyzer, inline and then on a 4-worker pool; after
/// every round its path must be the oracle walk over everything delivered
/// so far, and its lock figures the oracle's fold.
void expect_rounds_match_oracle(const std::vector<trace::Trace>& chunks,
                                const std::string& label) {
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = false;  // rounds cut sections and waits in two
    options.execution.num_threads = workers;
    IncrementalAnalyzer analyzer(options);
    trace::Trace delivered;
    for (std::size_t r = 0; r < chunks.size(); ++r) {
      const trace::Trace& chunk = chunks[r];
      analyzer.append(chunk);
      for (trace::ThreadId tid = 0;
           tid < static_cast<trace::ThreadId>(chunk.thread_count()); ++tid) {
        const auto events = chunk.thread_events(tid);
        if (!events.empty()) delivered.append_thread_events(tid, events);
      }
      for (const auto& [object, name] : chunk.object_names()) {
        delivered.set_object_name(object, name);
      }
      if (delivered.thread_count() == 0) continue;
      const trace::TraceView view(delivered);
      const test_support::Oracle oracle(view);
      const TraceIndex index(view);
      const std::string where = label + " (" + std::to_string(workers) +
                                " workers) after round " + std::to_string(r);
      const AnalysisResult& got = analyzer.result();
      test_support::expect_same_path(test_support::reference_walk(index, oracle),
                                     got.path, where);
      test_support::expect_table2(got, oracle, where);
    }
  }
}

TEST(Oracle, BatchMatchesOnEverySimWorkload) {
  for (const char* name : {"micro", "radiosity", "tsp", "uts", "water",
                           "volrend", "raytrace", "ldap"}) {
    expect_batch_matches_oracle(workload_trace(name), true, name);
  }
}

TEST(Oracle, BoundedBatchMatches) {
  for (const char* name : {"micro", "tsp", "ldap"}) {
    expect_batch_matches_oracle(workload_trace(name), true,
                                std::string(name) + ", bounded", 64);
  }
  // Not the regressing-clock schedule: the bounded sweep merges threads in
  // timestamp order, so a thread whose clock steps back is a documented
  // divergence (DESIGN §12) that only an unvalidated trace can reach.
  for (const auto& [name, trace] : schedules()) {
    if (name == "regressing thread 2") continue;
    expect_batch_matches_oracle(trace, false, name + ", bounded", 64);
  }
}

TEST(Oracle, IncrementalMatchesAtRandomCuts) {
  struct Case {
    std::string name;
    trace::Trace trace;
    std::uint64_t seeds;
  };
  std::vector<Case> cases;
  for (auto& [name, trace] : schedules()) cases.push_back({name, trace, 3});
  // The hand-cut traces have a few events per thread, so few random cuts
  // reproduce the shapes they were cut for: they get many more seeds.
  cases.push_back({"regressed section", test_support::regressed_section(), 64});
  cases.push_back({"regressed thread, landed hop",
                   test_support::regressed_thread_landed_hop(), 64});
  cases.push_back({"late hop", test_support::late_hop(), 64});
  cases.push_back({"ldap", workload_trace("ldap"), 3});
  cases.push_back({"radiosity", workload_trace("radiosity"), 3});
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
      expect_rounds_match_oracle(
          random_cuts(c.trace, 6, seed),
          c.name + " (seed " + std::to_string(seed) + ")");
    }
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

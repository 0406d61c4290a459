// Analysis against the paper-literal oracle (support/oracle.hpp): the
// critical path must be the oracle's event-by-event walk, and every
// per-lock, per-callsite and per-thread lock figure its fold over the
// sections it paired from the raw event columns, at 1 and 4 workers. Batch
// analysis is checked unbounded and under an RSS budget; incremental
// analysis after every round of a trace cut at random points or into time
// slices, which is where each refresh's walk splices onto the last one's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/error.hpp"
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

trace::Trace workload_trace(const char* name, double scale = 0.25) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = scale;
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

/// Cuts `full` into `rounds` time slices: round r delivers, per thread,
/// the events before the first one stamped at or after r+1 rounds' share
/// of the trace's span (the last round delivers the rest). A thread whose
/// clock steps back holds its events until a later one reaches the slice's
/// end, so no chunk rewinds its thread. Names ride on the first chunk.
std::vector<trace::Trace> time_slices(const trace::Trace& full,
                                      std::size_t rounds) {
  std::uint64_t first = ~static_cast<std::uint64_t>(0);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    if (!events.empty()) first = std::min(first, events.front().ts);
  }
  const std::uint64_t span = full.end_ts() - first;
  std::vector<trace::Trace> chunks(rounds);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::size_t end = events.size();
      if (r + 1 < rounds) {
        const std::uint64_t until = first + span * (r + 1) / rounds;
        end = begin;
        while (end < events.size() && events[end].ts < until) ++end;
      }
      if (end > begin) {
        chunks[r].append_thread_events(tid, events.subspan(begin, end - begin));
      }
      begin = end;
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

/// What the inline analyzer's walks reused over a run of rounds.
struct Reuse {
  std::uint64_t reused = 0;    ///< steps reused from the previous walk
  std::uint64_t previous = 0;  ///< steps the previous walks had
  std::size_t regressed_rounds = 0;     ///< rounds after a clock stepped back
  std::uint64_t regressed_reused = 0;   ///< steps reused in those rounds
};

/// Feeds `chunks` to two analyzers, inline and on a 4-worker pool; after
/// every round each one's path must be the oracle walk over everything
/// delivered so far, and its lock figures the oracle's fold. Returns what
/// the inline analyzer's walks reused.
Reuse expect_rounds_match_oracle(const std::vector<trace::Trace>& chunks,
                                 const std::string& label) {
  std::vector<std::unique_ptr<IncrementalAnalyzer>> analyzers;
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = false;  // rounds cut sections and waits in two
    options.execution.num_threads = workers;
    analyzers.push_back(std::make_unique<IncrementalAnalyzer>(options));
  }
  Reuse reuse;
  std::uint64_t last_steps = 0;
  trace::Trace delivered;
  for (std::size_t r = 0; r < chunks.size(); ++r) {
    const trace::Trace& chunk = chunks[r];
    for (const auto& analyzer : analyzers) analyzer->append(chunk);
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
    const CriticalPath want = test_support::reference_walk(index, oracle);
    for (std::size_t k = 0; k < analyzers.size(); ++k) {
      const std::string where = label + " (" + (k == 0 ? "1" : "4") +
                                " workers) after round " + std::to_string(r);
      const AnalysisResult& got = analyzers[k]->result();
      test_support::expect_same_path(want, got.path, where);
      test_support::expect_table2(got, oracle, where);
    }
    if (chunk.event_count() == 0) continue;  // nothing was walked
    const DagWalkStats& walk = analyzers[0]->walk_stats();
    if (last_steps != 0) {
      reuse.reused += walk.reused_steps;
      reuse.previous += last_steps;
    }
    last_steps = walk.merge_steps + walk.reused_steps;
    const auto& threads = analyzers[0]->index().threads();
    if (std::any_of(threads.begin(), threads.end(),
                    [](const ThreadInfo& info) { return !info.ts_ordered; })) {
      ++reuse.regressed_rounds;
      reuse.regressed_reused += walk.reused_steps;
    }
  }
  return reuse;
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
  for (const auto& [name, trace] : schedules()) {
    if (name != "regressing thread 2") {
      expect_batch_matches_oracle(trace, false, name + ", bounded", 64);
      continue;
    }
    // The bounded sweep merges the threads in timestamp order, so it
    // refuses a thread whose clock steps back; only an unvalidated trace
    // reaches it with one.
    for (const unsigned workers : {1u, 4u}) {
      Options options;
      options.validate = false;
      options.execution.num_threads = workers;
      options.limits.max_rss_mb = 64;
      Pipeline pipeline(options);
      pipeline.use_trace(trace);
      try {
        (void)pipeline.result();
        ADD_FAILURE() << name << " (" << workers
                      << " workers): the bounded engine took the trace";
      } catch (const util::ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("CLA_E_TS_REGRESSION"),
                  std::string::npos)
            << e.what();
      }
    }
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

TEST(Oracle, IncrementalSplicesMatchOverManyRounds) {
  constexpr std::size_t kRounds = 40;
  std::vector<std::pair<std::string, trace::Trace>> cases = schedules();
  // ldap at full scale: a path of a few hundred steps, as a monitor sees.
  cases.emplace_back("ldap", workload_trace("ldap", 1.0));
  for (const char* name : {"radiosity", "tsp"}) {
    cases.emplace_back(name, workload_trace(name));
  }
  for (const auto& [name, trace] : cases) {
    const Reuse sliced =
        expect_rounds_match_oracle(time_slices(trace, kRounds),
                                   name + ", time slices");
    expect_rounds_match_oracle(random_cuts(trace, kRounds, 7),
                               name + ", random cuts");
    if (name == "ldap") {
      // Each slice moves the end a little: most of the path stays.
      EXPECT_GE(static_cast<double>(sliced.reused),
                0.9 * static_cast<double>(sliced.previous))
          << sliced.reused << " of " << sliced.previous << " steps reused";
    }
    if (name == "regressing thread 2") {
      // Once a thread's clock steps back the DAG rediscovers that thread
      // in full, so no walk may splice.
      EXPECT_GT(sliced.regressed_rounds, 0u);
      EXPECT_EQ(sliced.regressed_reused, 0u);
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

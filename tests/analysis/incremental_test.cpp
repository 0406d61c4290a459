// Incremental append: analyzing a trace in rounds must produce the same
// bytes as one-shot analysis of the accumulated trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/util/error.hpp"
#include "cla/workloads/workload.hpp"
#include "support/lock_schedule.hpp"

namespace cla::analysis {
namespace {

trace::Trace workload_trace(const char* name) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  return workloads::run_workload(name, config).trace;
}

/// Splits `full` into `rounds` chunks, cutting every thread's stream at
/// proportional points. Names ride on the first chunk.
std::vector<trace::Trace> split_trace(const trace::Trace& full,
                                      std::size_t rounds) {
  std::vector<trace::Trace> chunks(rounds);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t end =
          r + 1 == rounds ? events.size() : events.size() * (r + 1) / rounds;
      if (end > begin) {
        chunks[r].append_thread_events(tid,
                                       events.subspan(begin, end - begin));
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

/// Cuts `full` at `rounds` evenly spaced timestamps: round r carries every
/// thread's events of the r-th time slice, as a live tail delivers them.
/// The slice of thread `late_tid` in round `late_round` is held back and
/// delivered with its next one. Names ride on the first chunk.
std::vector<trace::Trace> time_slices(const trace::Trace& full,
                                      std::size_t rounds,
                                      trace::ThreadId late_tid = trace::kNoThread,
                                      std::size_t late_round = 0) {
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t last = 0;
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    if (events.empty()) continue;
    first = std::min(first, events.front().ts);
    last = std::max(last, events.back().ts);
  }
  std::vector<trace::Trace> chunks(rounds);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (tid == late_tid && r == late_round) continue;
      std::size_t end = events.size();
      if (r + 1 < rounds) {
        const std::uint64_t cut = first + (last - first) * (r + 1) / rounds;
        end = static_cast<std::size_t>(
            std::partition_point(events.begin(), events.end(),
                                 [cut](const trace::Event& e) { return e.ts < cut; }) -
            events.begin());
      }
      if (end > begin) {
        chunks[r].append_thread_events(tid,
                                       events.subspan(begin, end - begin));
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

/// Cuts `full` into rounds by hand: ends[r][tid] is how many of thread
/// tid's events have arrived after round r.
std::vector<trace::Trace> rounds_at(
    const trace::Trace& full, const std::vector<std::vector<std::size_t>>& ends) {
  std::vector<trace::Trace> chunks(ends.size());
  for (std::size_t r = 0; r < ends.size(); ++r) {
    for (trace::ThreadId tid = 0; tid < ends[r].size(); ++tid) {
      const std::size_t begin = r == 0 ? 0 : ends[r - 1][tid];
      if (ends[r][tid] > begin) {
        chunks[r].append_thread_events(
            tid, full.thread_events(tid).subspan(begin, ends[r][tid] - begin));
      }
    }
  }
  return chunks;
}

std::string pipeline_report(const trace::Trace& trace, bool validate = true) {
  Options options;
  options.validate = validate;
  Pipeline pipeline(options);
  pipeline.use_trace(trace);
  return pipeline.report_json();
}

/// Checks `result`'s per-lock and per-callsite figures against a fold
/// over every section of `trace` — Table 2's definitions applied
/// directly, independent of the index's totals and of which sections the
/// TYPE 1 pass chose to visit.
void expect_lock_stats_fold(const AnalysisResult& result,
                            const trace::Trace& trace, const std::string& label) {
  const TraceIndex index(trace);
  struct Fold {
    std::uint64_t invocations = 0, contended = 0, wait = 0, hold = 0;
    std::uint64_t cp_invocations = 0, cp_contended = 0, cp_hold = 0;
  };
  std::map<std::pair<trace::ObjectId, std::uint64_t>, Fold> want;  // stack 0 = lock
  for (const auto& [id, mi] : index.mutexes()) {
    want[{id, 0}];
    for (const CsRecord& cs : mi.sections) {
      const std::uint64_t on_path =
          result.path.overlap(cs.tid, cs.acquired_ts, cs.released_ts);
      const auto add = [&](Fold& f) {
        ++f.invocations;
        f.contended += cs.contended ? 1 : 0;
        f.wait += cs.wait_time();
        f.hold += cs.hold_time();
        if (on_path == 0) return;
        ++f.cp_invocations;
        f.cp_contended += cs.contended ? 1 : 0;
        f.cp_hold += on_path;
      };
      add(want[{id, 0}]);
      if (cs.stack_id != 0) add(want[{id, cs.stack_id}]);
    }
  }
  std::map<std::pair<trace::ObjectId, std::uint64_t>, Fold> got;
  for (const LockStats& ls : result.locks) {
    got[{ls.id, 0}] = Fold{ls.invocations,    ls.contended,      ls.total_wait,
                           ls.total_hold,     ls.cp_invocations, ls.cp_contended,
                           ls.cp_hold_time};
  }
  for (const CallsiteStats& cs : result.callsites) {
    got[{cs.lock_id, cs.stack_id}] =
        Fold{cs.invocations,    cs.contended,      cs.total_wait,  cs.total_hold,
             cs.cp_invocations, cs.cp_contended, cs.cp_hold_time};
  }
  ASSERT_EQ(got.size(), want.size()) << label;
  for (const auto& [key, f] : want) {
    const Fold& g = got[key];
    const std::string where = label + " lock " + std::to_string(key.first) +
                              " stack " + std::to_string(key.second);
    EXPECT_EQ(g.invocations, f.invocations) << where;
    EXPECT_EQ(g.contended, f.contended) << where;
    EXPECT_EQ(g.wait, f.wait) << where;
    EXPECT_EQ(g.hold, f.hold) << where;
    EXPECT_EQ(g.cp_invocations, f.cp_invocations) << where;
    EXPECT_EQ(g.cp_contended, f.cp_contended) << where;
    EXPECT_EQ(g.cp_hold, f.cp_hold) << where;
  }
}

/// Feeds `chunks` to one analyzer and, after every round, compares its
/// report with one-shot analysis of everything delivered so far, and its
/// lock figures with a fold over every delivered section.
void expect_every_round_matches(const std::vector<trace::Trace>& chunks,
                                const std::string& label) {
  Options options;
  options.validate = false;  // intermediate rounds clip mid-protocol
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
    for (const auto& [tid, name] : chunk.thread_names()) {
      delivered.set_thread_name(tid, name);
    }
    ASSERT_EQ(analyzer.report_json(), pipeline_report(delivered, false))
        << label << " after round " << r;
    expect_lock_stats_fold(analyzer.result(), delivered,
                           label + " after round " + std::to_string(r));
  }
}

TEST(Incremental, HalvesMatchOneShotOnAllWorkloads) {
  for (const char* name :
       {"micro", "radiosity", "tsp", "uts", "water", "volrend", "raytrace",
        "ldap"}) {
    const trace::Trace full = workload_trace(name);
    const auto chunks = split_trace(full, 2);

    Options options;
    options.validate = false;  // intermediate rounds clip mid-protocol
    IncrementalAnalyzer analyzer(options);
    analyzer.append(chunks[0]);
    (void)analyzer.result();  // analyze the half, then extend
    analyzer.append(chunks[1]);

    EXPECT_EQ(analyzer.report_json(), pipeline_report(full)) << name;
  }
}

TEST(Incremental, EveryTimeSlicedRoundMatchesOneShotOnAllWorkloads) {
  for (const char* name :
       {"micro", "radiosity", "tsp", "uts", "water", "volrend", "raytrace",
        "ldap"}) {
    expect_every_round_matches(time_slices(workload_trace(name), 12), name);
  }
}

TEST(Incremental, LateThreadChunkMatchesOneShotEveryRound) {
  // Thread 1's fourth slice arrives a round late, so the next refresh's
  // boundary falls before sections the index already holds from the other
  // threads: those are re-sorted together with the late ones.
  for (const char* name : {"ldap", "tsp", "radiosity"}) {
    expect_every_round_matches(time_slices(workload_trace(name), 12, 1, 3),
                               std::string(name) + " (late thread 1)");
  }
}

// The simulated workloads carry no call stacks, nest no locks and hold
// none for long; these scripted traces do, and check every round.

TEST(Incremental, CallsiteTotalsMatchOneShotEveryRound) {
  // A callsite's totals appear with its first section, sit on a
  // provisional section at round ends, and drop to zero (and back) while
  // the index replaces that section.
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  const trace::Trace full = test_support::scheduled_locks(schedule);
  expect_every_round_matches(time_slices(full, 16), "callsites");
  expect_every_round_matches(split_trace(full, 7), "callsites (split)");
}

TEST(Incremental, NestedLocksMatchOneShotEveryRound) {
  test_support::LockSchedule schedule;
  schedule.nested = true;
  expect_every_round_matches(
      time_slices(test_support::scheduled_locks(schedule), 16), "nested");
}

TEST(Incremental, LockHeldAcrossRoundsMatchesOneShotEveryRound) {
  // Worker 1 holds mutex 1 for a third of the run: its section stays
  // provisional, and the other workers' acquires stay pending, for
  // several rounds.
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  const std::uint64_t span =
      test_support::scheduled_locks(schedule).end_ts();
  schedule.long_hold = span / 3;
  expect_every_round_matches(
      time_slices(test_support::scheduled_locks(schedule), 12), "long hold");
}

TEST(Incremental, RegressingThreadMatchesOneShotEveryRound) {
  // Thread 2's clock steps back inside one round, so its sections have no
  // time order: the stats visit all of them, and the DAG rediscovers it.
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  const trace::Trace plain = test_support::scheduled_locks(schedule);
  constexpr std::size_t kRounds = 8;
  const std::size_t n = plain.thread_events(2).size();
  // Midway between two of split_trace's cuts, so no round starts with a
  // rewind.
  const std::size_t step_at = (n * 3 / kRounds + n * 4 / kRounds) / 2;
  const trace::Trace full = test_support::with_clock_step_back(
      plain, 2, step_at, plain.end_ts() / 5);
  expect_every_round_matches(split_trace(full, kRounds), "regressing thread 2");
}

TEST(Incremental, RegressedSectionReResolvesEarlierWakeups) {
  // Thread 0's second round steps its clock back to t=100 and adds a
  // section on mutex 7 ahead of thread 1's contended one (t=105): that
  // wake-up, far before thread 0's first new event, gains a releaser.
  trace::TraceBuilder b;
  b.thread(0).start(0).lock(5, 400, 400, 500).lock(6, 510, 510, 520).lock(7, 100, 100, 110).exit(120);
  b.thread(1).start(0, trace::kNoThread).lock(7, 95, 105, 115).exit(1000);
  expect_every_round_matches(rounds_at(b.finish_unchecked(), {{4, 5}, {11, 5}}),
                             "regressed section");
}

TEST(Incremental, RegressedThreadGainsASegmentBeforeALandedHop) {
  // Thread 0's clock steps back at event 4. Its contended wake-up at
  // t=950 (event 2) finds a releaser only when thread 2's section on
  // mutex 5 arrives, and becomes a segment below event 5, where thread
  // 1's hop (to thread 0's release of mutex 6 at t=50) lands.
  trace::TraceBuilder b;
  b.thread(0).start(0).lock(5, 900, 950, 960).lock(6, 20, 30, 50).exit(60);
  b.thread(1).start(0, trace::kNoThread).lock(6, 35, 55, 70).exit(2000);
  b.thread(2).start(0, trace::kNoThread).lock(5, 910, 920, 940).exit(945);
  expect_every_round_matches(rounds_at(b.finish_unchecked(), {{8, 5, 1}, {8, 5, 5}}),
                             "regressed thread, landed hop");
}

TEST(Incremental, RetainedHopToALaterReleaserLandsInANewSegment) {
  // Overlapping sections on mutex 6: thread 1 obtains it (t=30) while
  // thread 0 still holds it until t=100, so thread 1's hop goes forward
  // in time. Thread 0's wake-up at t=60 becomes a segment when thread 2's
  // section on mutex 5 arrives — after the boundary (t=45) but below the
  // releaser, so the retained hop must land in the new segment.
  trace::TraceBuilder b;
  b.thread(0).start(0).acquire(6, 10).acquired(6, 10, false).lock(5, 50, 60, 70).released(6, 100).exit(110);
  b.thread(1).start(0, trace::kNoThread).lock(6, 20, 30, 40).exit(2000);
  b.thread(2).start(0, trace::kNoThread).lock(5, 45, 55, 58).exit(59);
  expect_every_round_matches(rounds_at(b.finish_unchecked(), {{8, 5, 1}, {8, 5, 5}}),
                             "late hop");
}

TEST(Incremental, ManyRoundsMatchOneShot) {
  const trace::Trace full = workload_trace("tsp");
  const auto chunks = split_trace(full, 5);
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  for (const auto& chunk : chunks) {
    analyzer.append(chunk);
    (void)analyzer.result();  // force a refresh every round
  }
  EXPECT_EQ(analyzer.report_json(), pipeline_report(full));
}

TEST(Incremental, LaterRoundsRetainEarlierSegments) {
  const trace::Trace full = workload_trace("radiosity");
  const auto chunks = split_trace(full, 2);
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  analyzer.append(chunks[0]);
  (void)analyzer.result();
  analyzer.append(chunks[1]);
  (void)analyzer.result();
  // The first half is history: most of its segments must survive the
  // append untouched (the re-resolution boundary only reaches back to
  // records still open at the cut).
  EXPECT_GT(analyzer.retained_segments(), 0u);
}

TEST(Incremental, SingleRoundMatchesPipeline) {
  const trace::Trace full = workload_trace("uts");
  IncrementalAnalyzer analyzer;
  analyzer.append(full);
  EXPECT_EQ(analyzer.report_json(), pipeline_report(full));
}

TEST(Incremental, EmptyAnalyzerIsACleanError) {
  IncrementalAnalyzer analyzer;
  EXPECT_THROW(analyzer.result(), util::Error);
}

TEST(Incremental, RewindingAppendIsRejected) {
  const trace::Trace full = workload_trace("micro");
  IncrementalAnalyzer analyzer;
  analyzer.append(full);
  EXPECT_THROW(analyzer.append(full), util::Error);  // restarts at ts 0
}

}  // namespace
}  // namespace cla::analysis

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
#include "support/oracle.hpp"
#include "support/section_tables.hpp"

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

/// Feeds `chunks` to one analyzer, inline and then on a 4-worker pool,
/// and after every round compares its report with one-shot analysis of
/// everything delivered so far, its lock figures with the oracle's fold
/// over every delivered section, and its index's section tables with a
/// rebuild from the index's mutexes.
void expect_every_round_matches(const std::vector<trace::Trace>& chunks,
                                const std::string& label) {
  std::vector<std::string> want;  // one-shot report per round
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = false;  // intermediate rounds clip mid-protocol
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
      for (const auto& [tid, name] : chunk.thread_names()) {
        delivered.set_thread_name(tid, name);
      }
      const std::string where = label + " (" + std::to_string(workers) +
                                " workers) after round " + std::to_string(r);
      if (want.size() == r) want.push_back(pipeline_report(delivered, false));
      ASSERT_EQ(analyzer.report_json(), want[r]) << where;
      test_support::expect_section_tables_match(analyzer.index(), where);
      if (workers == 1) {
        test_support::expect_table2(
            analyzer.result(), test_support::Oracle(trace::TraceView(delivered)),
            where);
      }
    }
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

TEST(Incremental, LateNamesAndLocksMatchOneShotEveryRound) {
  // Thread 0 runs last and never blocks, and each round ends between two
  // of its passes over locks 1, 2, 3 and 5 (5 ns each, uncontended), so
  // those tie on CP hold time and wait and rank by name, then id. Names
  // arrive with later rounds: a rename flips the tie order, the unnamed
  // "mutex@5" is named, lock 4 is first used mid-stream, and a chunk
  // carries names only.
  trace::TraceBuilder b;
  auto t0 = b.thread(0).start(0);
  constexpr std::uint64_t kPass = 100;
  constexpr std::size_t kPasses = 8;
  for (std::uint64_t p = 0; p < kPasses; ++p) {
    const std::uint64_t at = 10 + p * kPass;
    for (const trace::ObjectId lock : {1, 2, 3, 5}) {
      t0.lock_uncontended(lock, at + 10 * lock, at + 10 * lock + 5);
    }
    if (p >= kPasses / 2) t0.lock_uncontended(4, at + 60, at + 63);
  }
  t0.exit(10 + kPasses * kPass);
  auto t1 = b.thread(1).start(0, trace::kNoThread);
  for (std::uint64_t p = 0; p < kPasses; ++p) {
    t1.lock(6, 20 + p * kPass, 25 + p * kPass, 40 + p * kPass);
  }
  t1.exit(kPasses * kPass);
  const trace::Trace full = b.finish();

  // Two passes a round.
  std::vector<trace::Trace> chunks;
  for (std::size_t r = 0; r < kPasses / 2; ++r) {
    const std::uint64_t from = r * 2 * kPass;
    const std::uint64_t to = r + 1 == kPasses / 2 ? ~std::uint64_t{0}
                                                  : (r + 1) * 2 * kPass;
    trace::Trace& chunk = chunks.emplace_back();
    for (trace::ThreadId tid = 0; tid < 2; ++tid) {
      std::vector<trace::Event> slice;
      for (const trace::Event& e : full.thread_events(tid)) {
        if (e.ts >= from && e.ts < to) slice.push_back(e);
      }
      chunk.append_thread_events(tid, slice);
    }
  }
  chunks[0].set_object_name(1, "a");
  chunks[0].set_object_name(2, "b");
  chunks[0].set_object_name(3, "c");
  chunks[1].set_object_name(1, "d");  // now 3 "a", 2 "b", 1 "d"
  chunks[1].set_object_name(3, "a");
  chunks[2].set_object_name(4, "b");  // first used this round
  chunks[2].set_object_name(5, "aa");
  trace::Trace names_only;
  names_only.set_object_name(2, "0");
  names_only.set_object_name(6, "e");
  chunks.insert(chunks.begin() + 3, std::move(names_only));
  expect_every_round_matches(chunks, "late names");

  // The rounds do exercise the renames: the ties order by the names
  // delivered so far.
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  const std::vector<std::vector<trace::ObjectId>> tied = {
      {1, 2, 3, 5}, {3, 2, 1, 5}, {3, 5, 2, 1}, {2, 3, 5, 1}, {2, 3, 5, 1}};
  for (std::size_t r = 0; r < chunks.size(); ++r) {
    analyzer.append(chunks[r]);
    std::vector<trace::ObjectId> order;
    for (const LockStats& ls : analyzer.result().locks) {
      if (ls.id != 4 && ls.id != 6) order.push_back(ls.id);
    }
    EXPECT_EQ(order, tied[r]) << "round " << r;
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

// The three hand-cut traces of support/lock_schedule.hpp, each delivered
// in the two rounds whose cut it was written for.

TEST(Incremental, RegressedSectionReResolvesEarlierWakeups) {
  expect_every_round_matches(rounds_at(test_support::regressed_section(),
                                       test_support::kRegressedSectionCut),
                             "regressed section");
}

TEST(Incremental, RegressedThreadGainsASegmentBeforeALandedHop) {
  expect_every_round_matches(
      rounds_at(test_support::regressed_thread_landed_hop(),
                test_support::kThreeThreadCut),
      "regressed thread, landed hop");
}

TEST(Incremental, RetainedHopToALaterReleaserLandsInANewSegment) {
  expect_every_round_matches(
      rounds_at(test_support::late_hop(), test_support::kThreeThreadCut),
      "late hop");
}

TEST(Incremental, HopCycleAtOneInstantIsNotSpliced) {
  // Each second walk reaches the first walk's state in thread 1's segment,
  // but the first walk's path below it went through the cycle guard
  // differently: in one the second walk already took a hop the first took
  // below that state, in the other the first found a hop taken above it.
  // Neither walk may splice there.
  const std::vector<std::pair<trace::Trace, std::vector<std::vector<std::size_t>>>>
      cases = {
          {test_support::hop_cycle(50, 40), test_support::kCycleEnteredAtThread0Cut},
          {test_support::hop_cycle(50, 60), test_support::kCycleEnteredAtThread1Cut}};
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const auto chunks = rounds_at(cases[k].first, cases[k].second);
    const std::string label = "hop cycle " + std::to_string(k);
    expect_every_round_matches(chunks, label);
    Options options;
    options.validate = false;
    IncrementalAnalyzer analyzer(options);
    for (const trace::Trace& chunk : chunks) {
      analyzer.append(chunk);
      (void)analyzer.result();
    }
    EXPECT_EQ(analyzer.walk_stats().reused_steps, 0u) << label;
  }
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

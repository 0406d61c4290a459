// Incremental append: analyzing a trace in rounds must produce the same
// bytes as one-shot analysis of the accumulated trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/util/error.hpp"
#include "cla/workloads/workload.hpp"

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

std::string pipeline_report(const trace::Trace& trace, bool validate = true) {
  Options options;
  options.validate = validate;
  Pipeline pipeline(options);
  pipeline.use_trace(trace);
  return pipeline.report_json();
}

/// Feeds `chunks` to one analyzer and, after every round, compares its
/// report with one-shot analysis of everything delivered so far.
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

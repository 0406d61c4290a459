// MonitorCore degradation-ladder tests: live chunk delivery into the
// incremental analyzer, rotation -> window reset + CLA_W_TRACE_ROTATED,
// analysis budget breach -> window shed + CLA_W_ANALYSIS_WINDOW_SHED
// (never an escape), writer death -> final report, and the JSON ranking
// document's shape. No sockets, no subprocesses: every rung is driven
// through the library API the cla-monitor daemon uses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "cla/analysis/monitor.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/diagnostics.hpp"

namespace {

using cla::analysis::MonitorCore;
using cla::trace::ChunkedTraceWriter;
using cla::trace::Event;
using cla::trace::EventType;
using cla::trace::ThreadId;

constexpr std::uint64_t kLock = 0x1000;

std::vector<Event> worker_stream(ThreadId tid, std::size_t pairs,
                                 std::uint64_t ts0 = 0) {
  std::vector<Event> events;
  std::uint64_t ts = ts0 + 100 * (tid + 1);
  const auto add = [&](EventType type, std::uint64_t object,
                       std::uint64_t arg) {
    events.push_back(Event{ts++, object, arg, type, 0, tid});
  };
  add(EventType::ThreadStart, cla::trace::kNoObject, cla::trace::kNoArg);
  for (std::size_t i = 0; i < pairs; ++i) {
    add(EventType::MutexAcquire, kLock, cla::trace::kNoArg);
    add(EventType::MutexAcquired, kLock, 0);
    ts += 25;
    add(EventType::MutexReleased, kLock, cla::trace::kNoArg);
  }
  add(EventType::ThreadExit, cla::trace::kNoObject, cla::trace::kNoArg);
  return events;
}

/// `passes` rounds of thread `tid` over `locks`, each section held 7 ns
/// and uncontended, from `ts0` on; with a ThreadStart first and a
/// ThreadExit last when asked.
std::vector<Event> lock_passes(ThreadId tid, std::initializer_list<std::uint64_t> locks,
                               std::size_t passes, std::uint64_t ts0,
                               bool start, bool exit) {
  std::vector<Event> events;
  std::uint64_t ts = ts0;
  const auto add = [&](EventType type, std::uint64_t object,
                       std::uint64_t arg) {
    events.push_back(Event{ts++, object, arg, type, 0, tid});
  };
  if (start) add(EventType::ThreadStart, cla::trace::kNoObject, cla::trace::kNoArg);
  for (std::size_t p = 0; p < passes; ++p) {
    for (const std::uint64_t lock : locks) {
      add(EventType::MutexAcquire, lock, cla::trace::kNoArg);
      add(EventType::MutexAcquired, lock, 0);
      ts += 6;
      add(EventType::MutexReleased, lock, cla::trace::kNoArg);
      ts += 3;
    }
  }
  if (exit) add(EventType::ThreadExit, cla::trace::kNoObject, cla::trace::kNoArg);
  return events;
}

/// The tail of ranking_json() for one source, from "completion_time_ns"
/// on, rendered from a batch analysis of `trace` with the monitor's field
/// order and its stream precision of 12 significant digits.
std::string batch_ranking_tail(const cla::trace::Trace& trace, std::size_t top) {
  cla::analysis::Options options;
  options.validate = false;
  cla::analysis::Pipeline pipeline(options);
  pipeline.use_trace(trace);
  const cla::analysis::AnalysisResult& result = pipeline.result();
  std::ostringstream out;
  out.precision(12);
  out << ",\"completion_time_ns\":" << result.completion_time
      << ",\"worker_threads\":" << result.worker_threads << ",\"locks\":[";
  for (std::size_t k = 0; k < std::min(top, result.locks.size()); ++k) {
    const cla::analysis::LockStats& ls = result.locks[k];
    if (k > 0) out << ',';
    out << "{\"name\":" << cla::util::json_quoted(ls.name) << ",\"id\":" << ls.id
        << ",\"cp_hold_time_ns\":" << ls.cp_hold_time
        << ",\"cp_invocations\":" << ls.cp_invocations
        << ",\"cp_time_fraction\":" << ls.cp_time_fraction
        << ",\"invocations\":" << ls.invocations
        << ",\"total_wait_ns\":" << ls.total_wait
        << ",\"total_hold_ns\":" << ls.total_hold << '}';
  }
  out << "]}]}";
  return out.str();
}

std::string ranking_tail(const std::string& json) {
  const std::size_t at = json.find(",\"completion_time_ns\":");
  return at == std::string::npos ? json : json.substr(at);
}

class MonitorCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cla_monitor_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++) + ".clat"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  static int counter_;
};

int MonitorCoreTest::counter_ = 0;

TEST_F(MonitorCoreTest, RanksLocksFromALiveWriterAndFinishesOnCleanClose) {
  MonitorCore::Options options;
  options.top = 5;
  MonitorCore core({path_}, options);

  // Before the writer exists: no progress, not finished, empty document.
  EXPECT_FALSE(core.step());
  EXPECT_FALSE(core.all_finished());
  std::string json = core.ranking_json();
  EXPECT_NE(json.find("\"locks\":[]"), std::string::npos);

  ChunkedTraceWriter writer(path_, cla::trace::kTraceVersionV3);
  writer.write_object_name(kLock, "hot_lock");
  const std::vector<Event> batch = worker_stream(0, 30);
  ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()), batch.size());

  EXPECT_TRUE(core.step());
  json = core.ranking_json();
  EXPECT_NE(json.find("\"hot_lock\""), std::string::npos);
  EXPECT_NE(json.find("\"cp_hold_time_ns\""), std::string::npos);
  EXPECT_EQ(core.sources()[0].events, batch.size());
  EXPECT_FALSE(core.lossy());

  writer.write_meta(0, /*clean_close=*/true);
  writer.close();
  EXPECT_TRUE(core.step());
  EXPECT_TRUE(core.all_finished());
  EXPECT_TRUE(core.sources()[0].writer_finished);
  EXPECT_FALSE(core.lossy());
}

TEST_F(MonitorCoreTest, NameChunkInAnEventFreePollStillNamesTheLock) {
  // The writer registers the lock name, the monitor polls before any
  // event lands, and the events follow: the name must not be lost with
  // the event-free delta.
  MonitorCore core({path_}, MonitorCore::Options{});
  ChunkedTraceWriter writer(path_, cla::trace::kTraceVersionV3);
  writer.write_object_name(1, "lock_one");
  EXPECT_TRUE(core.step());

  std::vector<Event> batch = worker_stream(0, 10);
  for (Event& e : batch) {
    if (e.object == kLock) e.object = 1;
  }
  ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()), batch.size());
  EXPECT_TRUE(core.step());
  const std::string json = core.ranking_json();
  EXPECT_NE(json.find("\"lock_one\""), std::string::npos) << json;
  EXPECT_EQ(json.find("mutex@1"), std::string::npos) << json;
}

TEST_F(MonitorCoreTest, NamesWrittenAfterEventsRerankLikeABatchRun) {
  // The locks tie on CP hold time and wait, so names written after their
  // events reorder the ranking; every refresh must match a batch run
  // over what the writer has written so far.
  MonitorCore::Options options;
  options.top = 3;
  MonitorCore core({path_}, options);
  ChunkedTraceWriter writer(path_, cla::trace::kTraceVersionV3);
  cla::trace::Trace written;
  const auto write = [&](const std::vector<Event>& events) {
    ASSERT_EQ(writer.write_events(0, events.data(), events.size()), events.size());
    written.append_thread_events(0, events);
  };
  const auto name = [&](std::uint64_t lock, const std::string& text) {
    writer.write_object_name(lock, text);
    written.set_object_name(lock, text);
  };

  write(lock_passes(0, {1, 2, 3, 4}, 3, 10, true, false));
  ASSERT_TRUE(core.step());
  std::string json = core.ranking_json();
  EXPECT_EQ(ranking_tail(json), batch_ranking_tail(written, options.top));
  EXPECT_NE(json.find("\"mutex@1\""), std::string::npos) << json;

  name(4, "alpha");
  name(1, "ze\"ta");
  ASSERT_TRUE(core.step());
  json = core.ranking_json();
  EXPECT_EQ(ranking_tail(json), batch_ranking_tail(written, options.top));
  EXPECT_NE(json.find("\"locks\":[{\"name\":\"alpha\""), std::string::npos) << json;

  // Lock 7 is first used now, and lock 2 takes lock 4's name.
  write(lock_passes(0, {7, 1, 2, 3, 4}, 2, 1000, false, true));
  name(2, "alpha");
  ASSERT_TRUE(core.step());
  json = core.ranking_json();
  EXPECT_EQ(ranking_tail(json), batch_ranking_tail(written, options.top));
  EXPECT_NE(json.find("\"name\":\"alpha\",\"id\":2"), std::string::npos) << json;
  EXPECT_EQ(core.ranking_json(), json);  // an idle refresh renders the same bytes
}

TEST_F(MonitorCoreTest, RotationResetsTheWindowAndCountsAsLoss) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> batch = worker_stream(0, 20);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.close();
  }
  MonitorCore core({path_}, {});
  ASSERT_TRUE(core.step());
  ASSERT_EQ(core.sources()[0].rotations, 0u);

  // Replace the file (ring compaction / writer restart).
  const std::string tmp = path_ + ".new";
  {
    ChunkedTraceWriter writer(tmp, cla::trace::kTraceVersion);
    const std::vector<Event> batch = worker_stream(0, 5);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.write_meta(0, true);
    writer.close();
  }
  ASSERT_EQ(std::rename(tmp.c_str(), path_.c_str()), 0);

  EXPECT_TRUE(core.step());  // the Rotated poll
  EXPECT_EQ(core.sources()[0].rotations, 1u);
  EXPECT_TRUE(core.lossy());
  EXPECT_TRUE(core.step());  // the new generation's events
  EXPECT_EQ(core.sources()[0].events, 17u);  // 5 pairs * 3 + start/exit
  EXPECT_TRUE(core.sources()[0].writer_finished);
  EXPECT_TRUE(core.all_finished());

  const std::string json = core.ranking_json();
  EXPECT_NE(json.find("CLA_W_TRACE_ROTATED"), std::string::npos);
  EXPECT_NE(json.find("\"rotations\":1"), std::string::npos);
}

TEST_F(MonitorCoreTest, BudgetBreachShedsTheWindowInsteadOfDying) {
  MonitorCore::Options options;
  options.analysis.limits.max_events = 20;  // tiny: first window breaches
  MonitorCore core({path_}, options);

  ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
  const std::vector<Event> big = worker_stream(0, 30);  // 92 events > 20
  ASSERT_EQ(writer.write_events(0, big.data(), big.size()), big.size());

  ASSERT_TRUE(core.step());
  std::string json = core.ranking_json();  // breach happens in here
  EXPECT_EQ(core.sources()[0].windows_shed, 1u);
  EXPECT_TRUE(core.lossy());
  EXPECT_NE(json.find("CLA_W_ANALYSIS_WINDOW_SHED"), std::string::npos);
  EXPECT_FALSE(core.sources()[0].last_error.empty());

  // A small follow-up window analyzes fine: the monitor survived.
  const std::vector<Event> small = worker_stream(1, 2);
  ASSERT_EQ(writer.write_events(1, small.data(), small.size()), small.size());
  writer.write_meta(0, true);
  writer.close();
  EXPECT_TRUE(core.step());
  json = core.ranking_json();
  EXPECT_EQ(core.sources()[0].windows_shed, 1u);  // no new breach
  EXPECT_NE(json.find("\"windows_shed\":1"), std::string::npos);
}

TEST_F(MonitorCoreTest, RemovedSourceFinishesWithLastKnownRanking) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    writer.write_object_name(kLock, "hot_lock");
    const std::vector<Event> batch = worker_stream(0, 10);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.close();  // no clean-close meta: the writer was killed
  }
  MonitorCore core({path_}, {});
  ASSERT_TRUE(core.step());
  ASSERT_EQ(std::remove(path_.c_str()), 0);
  core.step();
  EXPECT_TRUE(core.sources()[0].removed);
  EXPECT_TRUE(core.all_finished());

  // The final report still carries the last good analysis.
  const std::string json = core.ranking_json();
  EXPECT_NE(json.find("\"hot_lock\""), std::string::npos);
  EXPECT_NE(json.find("\"removed\":true"), std::string::npos);
}

TEST_F(MonitorCoreTest, MultipleSourcesAreIndependent) {
  const std::string path2 = path_ + ".second";
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> batch = worker_stream(0, 10);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.write_meta(0, true);
    writer.close();
  }
  {
    ChunkedTraceWriter writer(path2, cla::trace::kTraceVersionV3);
    const std::vector<Event> batch = worker_stream(0, 4);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.write_meta(3, true);  // this one dropped events
    writer.close();
  }
  MonitorCore core({path_, path2}, {});
  EXPECT_TRUE(core.step());
  EXPECT_TRUE(core.all_finished());
  EXPECT_EQ(core.sources()[0].dropped_events, 0u);
  EXPECT_EQ(core.sources()[1].dropped_events, 3u);
  EXPECT_TRUE(core.lossy());  // source 2's drops taint the whole run
  const std::string json = core.ranking_json();
  EXPECT_NE(json.find(path2), std::string::npos);
  std::remove(path2.c_str());
}

}  // namespace

// Per-(lock, callsite) attribution: grouping, symbolization fallbacks,
// report/JSON rendering, and golden reports for two scripted demo
// workloads (regenerate with CLA_UPDATE_GOLDENS=1 after an intentional
// format change).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cla/analysis/report.hpp"
#include "support/analyze.hpp"
#include "cla/trace/builder.hpp"

namespace cla::analysis {
namespace {

/// Demo workload A: a queue lock acquired from two sites (push hot on
/// the critical path, pop cold) plus a log lock from one site.
trace::Trace demo_workload_a() {
  trace::TraceBuilder b;
  b.name_object(1, "queue");
  b.name_object(2, "log");
  b.name_thread(0, "main");
  b.name_thread(1, "worker");
  b.thread(0)
      .start(0)
      .create(5, 1)
      .lock_at(1, 1, 10, 10, 400)   // queue via push()
      .lock_at(2, 3, 420, 420, 440) // log via log_line()
      .join(1, 450, 900)
      .exit(1000);
  b.thread(1)
      .start(5, 0)
      .lock_at(1, 1, 20, 400, 600)  // queue via push(), contended
      .lock_at(1, 2, 620, 620, 650) // queue via pop()
      .exit(900);
  trace::Trace trace = b.finish();
  trace.set_call_stack(1, {0x1010, 0x2020});
  trace.set_call_stack(2, {0x1111, 0x2020});
  trace.set_call_stack(3, {0x3030});
  trace.set_frame_symbol(0x1010, "push+0x24 (demo)");
  trace.set_frame_symbol(0x1111, "pop+0x10 (demo)");
  trace.set_frame_symbol(0x2020, "worker_main+0x80 (demo)");
  trace.set_frame_symbol(0x3030, "log_line+0x8 (demo)");
  return trace;
}

/// Demo workload B: three threads over one lock, two callsites, one of
/// them unsymbolized (crash-spill style: raw PCs only).
trace::Trace demo_workload_b() {
  trace::TraceBuilder b;
  b.name_object(9, "state");
  b.thread(0)
      .start(0)
      .create(1, 1)
      .create(2, 2)
      .join(1, 10, 700)
      .join(2, 700, 820)
      .exit(900);
  b.thread(1).start(5, 0).lock_at(9, 1, 20, 20, 500).exit(700);
  b.thread(2).start(8, 0).lock_at(9, 2, 30, 500, 640).exit(820);
  trace::Trace trace = b.finish();
  trace.set_call_stack(1, {0xdead});
  trace.set_call_stack(2, {0xbeef});
  trace.set_frame_symbol(0xdead, "refresh+0x40 (app)");
  // 0xbeef intentionally unsymbolized -> hex fallback.
  return trace;
}

TEST(CallsiteStats, GroupsSectionsByLockAndStack) {
  const auto result = cla::test_support::analyze(demo_workload_a());
  // (queue, push), (queue, pop), (log, log_line).
  ASSERT_EQ(result.callsites.size(), 3u);
  const CallsiteStats& top = result.callsites.front();
  EXPECT_EQ(top.lock_name, "queue");
  EXPECT_EQ(top.stack_id, 1u);
  EXPECT_EQ(top.invocations, 2u);   // both push() sections
  EXPECT_EQ(top.contended, 1u);
  ASSERT_EQ(top.frames.size(), 2u);
  EXPECT_EQ(top.frames[0], "push+0x24 (demo)");
  EXPECT_EQ(top.frames[1], "worker_main+0x80 (demo)");
  EXPECT_GT(top.cp_hold_time, 0u);
  EXPECT_GT(top.cp_time_fraction, 0.0);
  // The ranking is by CP hold time: push outweighs pop and log.
  EXPECT_GE(top.cp_hold_time, result.callsites[1].cp_hold_time);
  EXPECT_GE(result.callsites[1].cp_hold_time,
            result.callsites[2].cp_hold_time);
}

TEST(CallsiteStats, RankingBreaksTiesByLockNameThenStackThenLockId) {
  // One thread, so every 5-ns section is on the path and every callsite
  // ties on CP hold time and total wait. Locks 10 and 20 share a name, so
  // their callsites order by stack id before lock id; lock 30's name
  // sorts first although its id is the largest named one, and the
  // unnamed lock 5 sorts as "mutex@5".
  trace::TraceBuilder b;
  b.name_object(10, "same");
  b.name_object(20, "same");
  b.name_object(30, "a");
  b.thread(0)
      .start(0)
      .lock_at(10, 2, 100, 100, 105)
      .lock_at(20, 1, 110, 110, 115)
      .lock_at(10, 3, 120, 120, 125)
      .lock_at(20, 3, 130, 130, 135)
      .lock_at(30, 4, 140, 140, 145)
      .lock_at(5, 1, 150, 150, 155)
      .exit(200);
  trace::Trace trace = b.finish();
  for (std::uint64_t stack = 1; stack <= 4; ++stack) {
    trace.set_call_stack(stack, {0x1000 + stack});
  }
  const std::vector<std::pair<trace::ObjectId, std::uint64_t>> want = {
      {30, 4}, {5, 1}, {20, 1}, {10, 2}, {10, 3}, {20, 3}};
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.execution.num_threads = workers;
    const auto result = cla::test_support::analyze(trace, options);
    ASSERT_EQ(result.callsites.size(), want.size()) << workers;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const CallsiteStats& cs = result.callsites[k];
      EXPECT_EQ(cs.lock_id, want[k].first) << workers << " #" << k;
      EXPECT_EQ(cs.stack_id, want[k].second) << workers << " #" << k;
      EXPECT_EQ(cs.cp_hold_time, 5u) << workers << " #" << k;
      EXPECT_EQ(cs.total_wait, 0u) << workers << " #" << k;
    }
  }
}

TEST(CallsiteStats, UnsymbolizedFramesFallBackToHex) {
  const auto result = cla::test_support::analyze(demo_workload_b());
  ASSERT_EQ(result.callsites.size(), 2u);
  bool found_hex = false;
  for (const auto& cs : result.callsites) {
    if (cs.stack_id == 2) {
      ASSERT_EQ(cs.frames.size(), 1u);
      EXPECT_EQ(cs.frames[0], "0xbeef");
      found_hex = true;
    }
  }
  EXPECT_TRUE(found_hex);
}

TEST(CallsiteStats, TraceWithoutStacksProducesNoCallsites) {
  trace::TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(1, 10, 50).exit(100);
  const auto result = cla::test_support::analyze(b.finish());
  EXPECT_TRUE(result.callsites.empty());
}

TEST(CallsiteReport, JsonSchemaBumpsOnlyWithCallsites) {
  const auto with = cla::test_support::analyze(demo_workload_a());
  const std::string json_with = render_json(with);
  EXPECT_NE(json_with.find("\"schema\": 3"), std::string::npos);
  EXPECT_NE(json_with.find("\"callsites\": ["), std::string::npos);
  EXPECT_NE(json_with.find("push+0x24 (demo)"), std::string::npos);

  trace::TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(1, 10, 50).exit(100);
  const auto without = cla::test_support::analyze(b.finish());
  const std::string json_without = render_json(without);
  EXPECT_NE(json_without.find("\"schema\": 2"), std::string::npos);
  EXPECT_EQ(json_without.find("callsites"), std::string::npos);
}

TEST(CallsiteReport, TextReportListsCallsitesAndStacks) {
  const auto result = cla::test_support::analyze(demo_workload_a());
  const std::string text = render_report(result);
  EXPECT_NE(text.find("CP time per (lock, acquisition site)"),
            std::string::npos);
  EXPECT_NE(text.find("push+0x24 (demo)"), std::string::npos);
  EXPECT_NE(text.find("call stacks (innermost first):"), std::string::npos);
  // The stack listing shows the full chain, innermost first.
  EXPECT_LT(text.find("push+0x24 (demo)"),
            text.find("worker_main+0x80 (demo)"));
}

TEST(CallsiteReport, StackFreeTraceKeepsTextReportUnchanged) {
  trace::TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(1, 10, 50).exit(100);
  const auto result = cla::test_support::analyze(b.finish());
  const std::string text = render_report(result);
  EXPECT_EQ(text.find("callsite"), std::string::npos);
}

class CallsiteGolden : public ::testing::Test {
 protected:
  static void check_golden(const trace::Trace& trace, const char* name) {
    const auto result = cla::test_support::analyze(trace);
    const std::string text = render_report(result);
    const std::string path = std::string(CLA_TEST_DATA_DIR) + "/" + name;
    if (std::getenv("CLA_UPDATE_GOLDENS") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      out << text;
      GTEST_SKIP() << "golden regenerated: " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << "missing golden " << path
                              << " (regenerate with CLA_UPDATE_GOLDENS=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(text, expected.str());
  }
};

TEST_F(CallsiteGolden, DemoWorkloadA) {
  check_golden(demo_workload_a(), "callsite_golden_a.txt");
}

TEST_F(CallsiteGolden, DemoWorkloadB) {
  check_golden(demo_workload_b(), "callsite_golden_b.txt");
}

}  // namespace
}  // namespace cla::analysis

// Bounded-RSS streaming engine: report parity with the unbounded
// pipeline, budget enforcement, and the pipeline routing (max_rss_mb).
#include <gtest/gtest.h>

#include "cla/analysis/pipeline.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/streaming.hpp"
#include "cla/util/error.hpp"
#include "cla/util/guard.hpp"
#include "cla/util/thread_pool.hpp"
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

/// A scheduled lock workload whose acquisitions carry call stacks 1..4,
/// with frame symbols for all but one program counter.
trace::Trace callsite_trace() {
  test_support::LockSchedule schedule;
  schedule.stacks = true;
  schedule.sections = 2000;
  trace::Trace trace = test_support::scheduled_locks(schedule);
  trace.set_call_stack(1, {0x1010, 0x2020});
  trace.set_call_stack(2, {0x1111, 0x2020});
  trace.set_call_stack(3, {0x3030});
  trace.set_call_stack(4, {0x4040, 0x2020});
  trace.set_frame_symbol(0x1010, "push+0x24 (demo)");
  trace.set_frame_symbol(0x1111, "pop+0x10 (demo)");
  trace.set_frame_symbol(0x2020, "worker_main+0x80 (demo)");
  trace.set_frame_symbol(0x3030, "log_line+0x8 (demo)");
  return trace;  // 0x4040 stays unsymbolized
}

TEST(Streaming, ReportMatchesUnboundedPipelineOnAllWorkloads) {
  for (const char* name :
       {"micro", "radiosity", "tsp", "uts", "water", "volrend", "raytrace",
        "ldap"}) {
    const trace::Trace trace = workload_trace(name);

    Pipeline reference;
    reference.use_trace(trace);
    const std::string expected = reference.report_json();

    Options bounded;
    bounded.limits.max_rss_mb = 4096;  // generous: routing, not pressure
    Pipeline pipeline(bounded);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected) << name;
    EXPECT_GT(pipeline.streaming_peak_bytes(), 0u) << name;
  }

  // Call stacks and frame symbols: the bounded report keeps the callsites.
  const trace::Trace trace = callsite_trace();
  Pipeline reference;
  reference.use_trace(trace);
  const std::string expected_json = reference.report_json();
  const std::string expected_text = reference.report();
  ASSERT_NE(expected_json.find("\"callsites\""), std::string::npos);
  ASSERT_NE(expected_text.find("push+0x24"), std::string::npos);

  Options bounded;
  bounded.limits.max_rss_mb = 4096;
  Pipeline pipeline(bounded);
  pipeline.use_trace(trace);
  EXPECT_EQ(pipeline.report_json(), expected_json);
  EXPECT_EQ(pipeline.report(), expected_text);
}

TEST(Streaming, PooledStreamingMatchesInlineStreaming) {
  for (const trace::Trace& trace : {workload_trace("tsp"), callsite_trace()}) {
    const trace::TraceView view(trace);
    StatsOptions options;

    const StreamingOutcome inline_run =
        analyze_streaming(view, options, nullptr, 0);
    util::ThreadPool pool(4);
    const StreamingOutcome pooled = analyze_streaming(view, options, &pool, 0);

    EXPECT_EQ(render_json(inline_run.result), render_json(pooled.result));
    EXPECT_EQ(inline_run.walk_stats.segments, pooled.walk_stats.segments);
  }
}

TEST(Streaming, TinyBudgetAborts) {
  const trace::Trace trace = workload_trace("radiosity");
  const trace::TraceView view(trace);
  StatsOptions options;
  EXPECT_THROW(analyze_streaming(view, options, nullptr, 1024),
               util::ResourceLimitError);
}

TEST(Streaming, PeakBytesStaysUnderTheBudget) {
  for (const trace::Trace& trace : {workload_trace("micro"), callsite_trace()}) {
    const trace::TraceView view(trace);
    StatsOptions options;
    const StreamingOutcome out =
        analyze_streaming(view, options, nullptr, 64ull << 20);
    EXPECT_GT(out.peak_bytes, 0u);
    EXPECT_LE(out.peak_bytes, 64ull << 20);
  }
}

}  // namespace
}  // namespace cla::analysis

// Staged Pipeline API: stage-by-stage invocation, lazy prerequisites,
// self-profiling, options aggregate compatibility, and the streaming load
// stage.
#include <gtest/gtest.h>

#include <sstream>

#include "support/analyze.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"
#include "cla/workloads/workload.hpp"

namespace cla::analysis {
namespace {

trace::Trace micro_trace() {
  workloads::WorkloadConfig config;
  config.threads = 4;
  return workloads::run_workload("micro", config).trace;
}

TEST(PipelineApi, StageByStageMatchesOneShotAnalyze) {
  const trace::Trace trace = micro_trace();
  const AnalysisResult expected = test_support::analyze(trace);

  Pipeline pipeline;
  pipeline.use_trace(trace);
  pipeline.validate_stage();
  pipeline.index_stage();
  pipeline.dag_stage();
  pipeline.walk_stage();
  pipeline.stats_stage();
  const AnalysisResult& staged = pipeline.result();

  EXPECT_EQ(render_json(staged), render_json(expected));
}

TEST(PipelineApi, ResultPullsAllOutstandingStages) {
  const trace::Trace trace = micro_trace();
  Pipeline pipeline;
  pipeline.use_trace(trace);
  // No explicit stage calls: result() must run validate..stats itself.
  EXPECT_EQ(render_json(pipeline.result()), render_json(test_support::analyze(trace)));
}

TEST(PipelineApi, ProfileRecordsEveryStageInOrder) {
  const trace::Trace trace = micro_trace();
  Pipeline pipeline;
  pipeline.use_trace(trace);
  (void)pipeline.report();

  const PipelineProfile& profile = pipeline.profile();
  ASSERT_EQ(profile.stages.size(), 6u);  // validate..report (no load stage)
  EXPECT_EQ(profile.stages[0].stage, Stage::Validate);
  EXPECT_EQ(profile.stages[1].stage, Stage::Index);
  EXPECT_EQ(profile.stages[2].stage, Stage::BuildDag);
  EXPECT_EQ(profile.stages[3].stage, Stage::Walk);
  EXPECT_EQ(profile.stages[4].stage, Stage::Stats);
  EXPECT_EQ(profile.stages[5].stage, Stage::Report);

  const std::string rendered = profile.to_string();
  for (const char* name :
       {"validate", "index", "builddag", "walk", "stats", "report", "total",
        "peak rss"}) {
    EXPECT_NE(rendered.find(name), std::string::npos) << name;
  }
}

TEST(PipelineApi, NoProfileHasAResolveStage) {
  // One walk: wake-ups resolve inside builddag, bounded or not.
  const trace::Trace trace = micro_trace();
  for (const std::uint64_t max_rss_mb : {0u, 4096u}) {
    Options options;
    options.limits.max_rss_mb = max_rss_mb;
    options.report.json_profile = true;
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    const std::string json = pipeline.report_json();
    EXPECT_EQ(pipeline.profile().to_string().find("resolve"),
              std::string::npos)
        << max_rss_mb;
    EXPECT_EQ(json.find("resolve"), std::string::npos) << max_rss_mb;
    EXPECT_GT(pipeline.profile().stage_ns(Stage::BuildDag), 0u) << max_rss_mb;
  }
}

TEST(PipelineApi, StagesRunAtMostOnce) {
  const trace::Trace trace = micro_trace();
  Pipeline pipeline;
  pipeline.use_trace(trace);
  pipeline.index_stage();
  pipeline.index_stage();
  (void)pipeline.result();
  (void)pipeline.result();
  std::size_t index_runs = 0;
  for (const auto& timing : pipeline.profile().stages) {
    if (timing.stage == Stage::Index) ++index_runs;
  }
  EXPECT_EQ(index_runs, 1u);
}

TEST(PipelineApi, LoadStreamFeedsTheFullPipeline) {
  const trace::Trace trace = micro_trace();
  std::stringstream buffer;
  trace::write_trace(trace, buffer);

  Pipeline pipeline;
  pipeline.load_stream(buffer);
  EXPECT_EQ(render_json(pipeline.result()), render_json(test_support::analyze(trace)));
  EXPECT_EQ(pipeline.profile().stages.front().stage, Stage::Load);
}

TEST(PipelineApi, MissingTraceIsACleanError) {
  Pipeline pipeline;
  EXPECT_THROW(pipeline.result(), util::Error);
  EXPECT_THROW(pipeline.trace(), util::Error);
}

TEST(PipelineApi, LoadFileMissingIsACleanError) {
  Pipeline pipeline;
  EXPECT_THROW(pipeline.load_file("/nonexistent/dir/trace.clat"), util::Error);
}

TEST(PipelineApi, ValidateOffSkipsTheStage) {
  Options options;
  options.validate = false;
  const trace::Trace trace = micro_trace();
  Pipeline pipeline(options);
  pipeline.use_trace(trace);
  (void)pipeline.result();
  for (const auto& timing : pipeline.profile().stages) {
    EXPECT_NE(timing.stage, Stage::Validate);
  }
}

TEST(PipelineApi, ExplicitValidateWinsOverDisabledOption) {
  Options options;
  options.validate = false;
  trace::Trace empty;  // violates "trace has no threads"
  Pipeline pipeline(options);
  pipeline.use_trace(std::move(empty));
  EXPECT_THROW(pipeline.validate_stage(), util::Error);
}

TEST(PipelineApi, OptionsAggregateCarriesPerStageSubStructs) {
  Options options;
  options.report.top_locks = 3;
  options.execution.num_threads = 2;
  options.load.salvage = false;
  const trace::Trace trace = micro_trace();
  const AnalysisResult a = test_support::analyze(trace);
  const AnalysisResult b = test_support::analyze(trace, options);
  EXPECT_EQ(a.completion_time, b.completion_time);
}

TEST(PipelineApi, ParallelExecutionPolicyMatchesSequential) {
  const trace::Trace trace = micro_trace();
  Pipeline reference;
  reference.use_trace(trace);
  const std::string expected = reference.report_json();
  for (unsigned threads : {2u, 4u}) {
    Options options;
    options.execution.num_threads = threads;
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected) << threads << " threads";
  }
}

TEST(PipelineApi, TakeResultMovesTheResultOut) {
  const trace::Trace trace = micro_trace();
  Pipeline pipeline;
  pipeline.use_trace(trace);
  const AnalysisResult result = pipeline.take_result();
  EXPECT_GT(result.completion_time, 0u);
  EXPECT_FALSE(result.locks.empty());
}

}  // namespace
}  // namespace cla::analysis

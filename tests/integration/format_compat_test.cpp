// Cross-format compatibility: every `.clat` encoding of the same trace —
// v1 (read-only, from the fixtures), v2 (raw chunks), v3 (compact
// varint) — must analyze to the
// byte-identical report, whether loaded from the file (mmap) or from a
// stream. The golden fixtures in tests/data/ are files
// written by an older build and checked in, so a decoder regression that
// also changes the encoder cannot hide itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/workloads/workload.hpp"

namespace {

std::string report_for_file(const std::string& path) {
  cla::analysis::Pipeline pipeline;
  pipeline.load_file(path);
  return pipeline.report();
}

std::string report_for_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  cla::analysis::Pipeline pipeline;
  pipeline.load_stream(in);
  return pipeline.report();
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

cla::trace::Trace workload_trace() {
  cla::workloads::WorkloadConfig config;
  config.threads = 4;
  config.seed = 7;
  return cla::workloads::run_workload("micro", config).trace;
}

TEST(FormatCompat, ReportsIdenticalAcrossEncodingsAndLoaders) {
  // v1 is read-only; its reports are pinned by the golden fixture tests.
  const cla::trace::Trace trace = workload_trace();
  std::string reference;
  for (std::uint32_t version : {2u, 3u}) {
    const std::string path = temp_path("cla_format_compat.clat");
    cla::trace::write_trace_file(trace, path, version);
    const std::string mapped = report_for_file(path);
    const std::string streamed = report_for_stream(path);
    EXPECT_EQ(mapped, streamed) << "loader mismatch for v" << version;
    if (reference.empty()) {
      reference = mapped;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(mapped, reference) << "report drift for v" << version;
    }
    std::remove(path.c_str());
  }
}

TEST(FormatCompat, GoldenFixturesProduceGoldenReport) {
  const std::string data_dir = CLA_TEST_DATA_DIR;
  std::ifstream golden(data_dir + "/golden_report.txt", std::ios::binary);
  ASSERT_TRUE(golden.is_open());
  std::stringstream expected;
  expected << golden.rdbuf();
  for (const char* fixture : {"/golden_v1.clat", "/golden_v2.clat"}) {
    EXPECT_EQ(report_for_file(data_dir + fixture), expected.str())
        << fixture << " load_file";
    EXPECT_EQ(report_for_stream(data_dir + fixture), expected.str())
        << fixture << " load_stream";
  }
}

TEST(FormatCompat, CallsiteTraceReportsIdenticalAcrossEncodingsAndLoaders) {
  // Same invariant as above, but the trace carries acquisition call
  // stacks (CallStacks/FrameSymbols chunks; v1 cannot encode them, so
  // only the chunked formats participate) and its events reference them,
  // so the report includes the callsite attribution section.
  cla::trace::TraceBuilder b;
  b.name_object(1, "queue");
  b.thread(0)
      .start(0)
      .lock_at(1, 1, 10, 10, 400)
      .lock_at(1, 2, 420, 420, 460)
      .exit(500);
  cla::trace::Trace trace = b.finish();
  trace.set_call_stack(1, {0x4000, 0x5000});
  trace.set_call_stack(2, {0x6000});
  trace.set_frame_symbol(0x4000, "enqueue+0x10 (demo)");
  trace.set_frame_symbol(0x5000, "main+0x44 (demo)");
  std::string reference;
  for (std::uint32_t version : {2u, 3u}) {
    const std::string path = temp_path("cla_format_compat_cs.clat");
    cla::trace::write_trace_file(trace, path, version);
    const std::string mapped = report_for_file(path);
    const std::string streamed = report_for_stream(path);
    EXPECT_EQ(mapped, streamed) << "loader mismatch for v" << version;
    EXPECT_NE(mapped.find("enqueue+0x10 (demo)"), std::string::npos);
    if (reference.empty()) {
      reference = mapped;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(mapped, reference) << "report drift for v" << version;
    }
    std::remove(path.c_str());
  }
}

TEST(FormatCompat, GoldenFixturesStayOnJsonSchema2) {
  // Pre-callsite fixtures must keep producing the schema-2 JSON report:
  // the "callsites" extension may only appear when a trace actually
  // carries call-stack chunks.
  const std::string data_dir = CLA_TEST_DATA_DIR;
  for (const char* fixture : {"/golden_v1.clat", "/golden_v2.clat"}) {
    cla::analysis::Pipeline pipeline;
    pipeline.load_file(data_dir + fixture);
    const std::string json = pipeline.report_json();
    EXPECT_NE(json.find("\"schema\": 2"), std::string::npos) << fixture;
    EXPECT_EQ(json.find("callsites"), std::string::npos) << fixture;
  }
}

TEST(FormatCompat, GoldenFixturesSurviveV3Conversion) {
  // Old file -> new compact format -> same report.
  const std::string data_dir = CLA_TEST_DATA_DIR;
  const std::string converted = temp_path("cla_golden_v3.clat");
  cla::trace::convert_trace_file(data_dir + "/golden_v1.clat", converted,
                                 cla::trace::kTraceVersionV3);
  EXPECT_EQ(report_for_file(converted),
            report_for_file(data_dir + "/golden_v2.clat"));
  std::remove(converted.c_str());
}

}  // namespace

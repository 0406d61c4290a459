// CallStacks / FrameSymbols chunk round-trips (format doc in
// trace_io.hpp): the acquisition call-stack table and its symbol table
// must survive every writer/reader pairing — the one-shot file writer,
// the streaming ChunkedTraceWriter, the mmap view, salvage, and format
// conversion — and their absence must leave files byte-identical to a
// stack-free recording.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cla/trace/builder.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"

namespace cla::trace {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A per-format file: ctest runs the v2 and v3 instances of a test as
/// separate processes at once, so they must not share one.
std::string format_temp_path(const char* name, std::uint32_t version) {
  return temp_path(
      (std::string(name) + "_v" + std::to_string(version) + ".clat").c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Two callsites on one lock, one on another; stack 2 is two frames deep.
Trace callsite_trace() {
  TraceBuilder b;
  b.name_object(1, "L1");
  b.name_object(2, "L2");
  b.thread(0)
      .start(0)
      .lock_at(1, 1, 10, 10, 40)
      .lock_at(1, 2, 50, 50, 60)
      .lock_at(2, 3, 70, 70, 90)
      .exit(100);
  Trace trace = b.finish();
  trace.set_call_stack(1, {0x1000, 0x2000});
  trace.set_call_stack(2, {0x3000});
  trace.set_call_stack(3, {0x1000});
  trace.set_frame_symbol(0x1000, "worker_push+0x12 (app)");
  trace.set_frame_symbol(0x2000, "main+0x40 (app)");
  return trace;
}

void expect_tables_equal(const Trace& expected, const TraceView& view) {
  EXPECT_EQ(view.call_stacks(), expected.call_stacks());
  EXPECT_EQ(view.frame_symbols(), expected.frame_symbols());
}

class CallStackRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CallStackRoundTrip, FileWriterAndReader) {
  const Trace trace = callsite_trace();
  const std::string path = format_temp_path("cla_call_stack_rt", GetParam());
  write_trace_file(trace, path, GetParam());

  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.call_stacks(), trace.call_stacks());
  EXPECT_EQ(loaded.frame_symbols(), trace.frame_symbols());
  // The stack id still rides the MutexAcquire arg after the round-trip.
  EXPECT_EQ(loaded.thread_events(0)[1].arg, 1u);

  if (mmap_supported()) {
    MappedTrace mapped(path);
    expect_tables_equal(trace, mapped.view());
  }
  std::remove(path.c_str());
}

TEST_P(CallStackRoundTrip, SurvivesConversionAcrossVersions) {
  const Trace trace = callsite_trace();
  const std::string src = format_temp_path("cla_call_stack_conv_src", GetParam());
  const std::string dst = format_temp_path("cla_call_stack_conv_dst", GetParam());
  write_trace_file(trace, src, GetParam());
  const std::uint32_t other =
      GetParam() == kTraceVersionV3 ? kTraceVersion : kTraceVersionV3;
  convert_trace_file(src, dst, other);
  const Trace converted = read_trace_file(dst);
  EXPECT_EQ(converted.call_stacks(), trace.call_stacks());
  EXPECT_EQ(converted.frame_symbols(), trace.frame_symbols());
  std::remove(src.c_str());
  std::remove(dst.c_str());
}

TEST_P(CallStackRoundTrip, SalvageKeepsStackTables) {
  const Trace trace = callsite_trace();
  const std::string path = format_temp_path("cla_call_stack_salvage", GetParam());
  write_trace_file(trace, path, GetParam());
  const SalvageResult salvaged = salvage_trace_file(path);
  EXPECT_EQ(salvaged.trace.call_stacks(), trace.call_stacks());
  EXPECT_EQ(salvaged.trace.frame_symbols(), trace.frame_symbols());
  std::remove(path.c_str());
}

TEST_P(CallStackRoundTrip, StackFreeTraceWritesNoStackChunks) {
  // A trace without call stacks must produce the exact bytes it always
  // did: chunk kinds 7/8 appear only when the tables are non-empty.
  TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(1, 10, 20).exit(30);
  const Trace plain = b.finish();
  const std::string path = format_temp_path("cla_call_stack_free", GetParam());
  write_trace_file(plain, path, GetParam());
  const std::string bytes = file_bytes(path);
  // "CLCH" fourcc followed by u32 kind: scan every chunk header.
  for (std::size_t pos = bytes.find("CLCH"); pos != std::string::npos;
       pos = bytes.find("CLCH", pos + 1)) {
    if (pos + 8 > bytes.size()) break;
    std::uint32_t kind = 0;
    std::memcpy(&kind, bytes.data() + pos + 4, sizeof kind);
    EXPECT_NE(kind, static_cast<std::uint32_t>(ChunkKind::CallStacks));
    EXPECT_NE(kind, static_cast<std::uint32_t>(ChunkKind::FrameSymbols));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, CallStackRoundTrip,
                         ::testing::Values(kTraceVersion, kTraceVersionV3),
                         [](const auto& info) {
                           return info.param == kTraceVersionV3 ? "v3" : "v2";
                         });

TEST(CallStackStreaming, ChunkedWriterStreamsStackAndSymbolChunks) {
  const std::string path = temp_path("cla_call_stack_stream.clat");
  {
    ChunkedTraceWriter writer(path, kTraceVersionV3);
    const std::uint64_t pcs[2] = {0xabc, 0xdef};
    writer.write_call_stack(1, pcs, 2);
    writer.write_frame_symbol(0xabc, "f (m)");
    const Event events[] = {
        {0, kNoObject, kNoArg, EventType::ThreadStart, 0, 0},
        {5, kNoObject, kNoArg, EventType::ThreadExit, 0, 0},
    };
    writer.write_events(0, events, 2);
    writer.write_meta(0, /*clean_close=*/true);
  }
  std::ifstream in(path, std::ios::binary);
  const Trace loaded = read_trace(in);
  ASSERT_EQ(loaded.call_stacks().size(), 1u);
  EXPECT_EQ(loaded.call_stacks().at(1),
            (std::vector<std::uint64_t>{0xabc, 0xdef}));
  ASSERT_EQ(loaded.frame_symbols().size(), 1u);
  EXPECT_EQ(loaded.frame_symbols().at(0xabc), "f (m)");
  std::remove(path.c_str());
}

TEST(CallStackStreaming, WriterClampsDepthToFormatMaximum) {
  const std::string path = temp_path("cla_call_stack_deep.clat");
  {
    ChunkedTraceWriter writer(path, kTraceVersion);
    std::vector<std::uint64_t> pcs(kMaxCallStackDepth + 5, 0x10);
    writer.write_call_stack(1, pcs.data(), pcs.size());
    const Event events[] = {
        {0, kNoObject, kNoArg, EventType::ThreadStart, 0, 0},
        {5, kNoObject, kNoArg, EventType::ThreadExit, 0, 0},
    };
    writer.write_events(0, events, 2);
    writer.write_meta(0, /*clean_close=*/true);
  }
  const Trace loaded = read_trace_file(path);
  ASSERT_EQ(loaded.call_stacks().size(), 1u);
  EXPECT_EQ(loaded.call_stacks().at(1).size(), kMaxCallStackDepth);
  std::remove(path.c_str());
}

TEST(CallStackStreaming, LastWriteWinsOnDuplicateIds) {
  const std::string path = temp_path("cla_call_stack_dup.clat");
  {
    ChunkedTraceWriter writer(path, kTraceVersion);
    const std::uint64_t first[1] = {0x1};
    const std::uint64_t second[1] = {0x2};
    writer.write_call_stack(7, first, 1);
    writer.write_call_stack(7, second, 1);
    writer.write_frame_symbol(0x1, "old");
    writer.write_frame_symbol(0x1, "new");
    const Event events[] = {
        {0, kNoObject, kNoArg, EventType::ThreadStart, 0, 0},
        {5, kNoObject, kNoArg, EventType::ThreadExit, 0, 0},
    };
    writer.write_events(0, events, 2);
    writer.write_meta(0, /*clean_close=*/true);
  }
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.call_stacks().at(7), (std::vector<std::uint64_t>{0x2}));
  EXPECT_EQ(loaded.frame_symbols().at(0x1), "new");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cla::trace

// Reader agreement: every way of reading a `.clat` file — read_trace,
// read_trace_file, MappedTrace, Pipeline::load_file / load_stream,
// salvage, the live tailer, a whole-window clip — must yield the same
// events and the same TraceTables (names, call stacks, frame symbols,
// runtime warnings, drop count), for v1, v2 and v3; and repair and clip
// must give the same trace from each of those readers' views. v1 is
// read-only, so its cases read the checked-in tests/data/golden_v1.clat.
// The stream loaders must also keep the strict loader's failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/clip.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/tailer.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Two threads, two named locks, and every table kind: 4 call stacks,
/// 5 frame symbols, a runtime warning and a drop count.
Trace rich_trace() {
  TraceBuilder b;
  b.name_object(1, "queue");
  b.name_object(2, "stats");
  b.name_thread(0, "main");
  b.name_thread(1, "worker");
  b.thread(0)
      .start(0)
      .create(1, 1)
      .lock_at(1, 1, 10, 10, 40)
      .join(1, 50, 200)
      .lock_at(2, 4, 210, 210, 230)
      .exit(300);
  b.thread(1)
      .start(2)
      .lock_at(1, 2, 20, 40, 60)
      .lock_at(2, 3, 70, 70, 90)
      .exit(190);
  Trace trace = b.finish();
  trace.set_call_stack(1, {0x1000, 0x2000});
  trace.set_call_stack(2, {0x3000});
  trace.set_call_stack(3, {0x1000, 0x4000});
  trace.set_call_stack(4, {0x5000});
  trace.set_frame_symbol(0x1000, "push+0x12 (app)");
  trace.set_frame_symbol(0x2000, "main+0x40 (app)");
  trace.set_frame_symbol(0x3000, "pop+0x8 (app)");
  trace.set_frame_symbol(0x4000, "flush+0x1c (app)");
  trace.set_frame_symbol(0x5000, "report+0x4 (app)");
  trace.set_runtime_warning(
      static_cast<std::uint32_t>(util::DiagCode::CLA_W_IO_RETRIED), 2);
  trace.set_dropped_events(3);
  return trace;
}

/// What a file of `version` can carry of `trace`'s tables: v1 has only
/// the name tables.
TraceTables carried_tables(const Trace& trace, std::uint32_t version) {
  if (version != kTraceVersionLegacy) return trace.tables();
  TraceTables names;
  names.object_names = trace.object_names();
  names.thread_names = trace.thread_names();
  return names;
}

void expect_same(const TraceView& got, const Trace& want,
                 const TraceTables& tables, const std::string& path_name) {
  SCOPED_TRACE(path_name);
  EXPECT_EQ(got.tables(), tables);
  ASSERT_EQ(got.thread_count(), want.thread_count());
  for (ThreadId tid = 0; tid < want.thread_count(); ++tid) {
    const auto expected = want.thread_events(tid);
    const EventsView& events = got.thread_events(tid);
    ASSERT_EQ(events.size(), expected.size()) << "tid " << tid;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(events[i], expected[i]) << "tid " << tid << " event " << i;
    }
  }
}

void expect_same(const Trace& got, const Trace& want,
                 const TraceTables& tables, const std::string& path_name) {
  expect_same(TraceView(got), want, tables, path_name);
}

/// Replays `path` through a TraceTailer and accumulates its deltas the
/// way a live consumer sees them: events and table entries from the
/// delta fragments, the drop count and warnings from the counters.
Trace tail_whole_file(const std::string& path) {
  TraceTailer tailer(path);
  Trace acc;
  std::map<std::uint32_t, std::uint64_t> warnings;
  TraceTailer::Delta delta;
  for (int i = 0; i < 16; ++i) {
    if (tailer.poll(delta) != TraceTailer::PollStatus::Progress) break;
    for (ThreadId tid = 0; tid < delta.chunk.thread_count(); ++tid) {
      acc.append_thread_events(tid, delta.chunk.thread_events(tid));
    }
    acc.tables().merge(delta.chunk.tables());
    warnings = delta.runtime_warnings;
  }
  acc.tables().runtime_warnings = warnings;
  acc.set_dropped_events(tailer.dropped_events());
  return acc;
}

std::string golden_path(const char* name) {
  return std::string(CLA_TEST_DATA_DIR) + "/" + name;
}

/// Reads the `.clat` file at `path` (`version`, holding `original`)
/// through every reader.
void check_every_reader(const std::string& path, std::uint32_t version,
                        const Trace& original) {
  const TraceTables tables = carried_tables(original, version);
  {
    std::ifstream in(path, std::ios::binary);
    expect_same(read_trace(in), original, tables, "read_trace");
  }
  expect_same(read_trace_file(path), original, tables, "read_trace_file");
  {
    const MappedTrace mapped(path);
    expect_same(mapped.view(), original, tables, "MappedTrace");
  }
  {
    analysis::Pipeline pipeline;
    pipeline.load_file(path);
    expect_same(pipeline.view(), original, tables, "Pipeline::load_file");
  }
  {
    std::ifstream in(path, std::ios::binary);
    analysis::Pipeline pipeline;
    pipeline.load_stream(in);
    expect_same(pipeline.view(), original, tables, "Pipeline::load_stream");
  }
  {
    const SalvageResult salvaged = salvage_trace_file(path);
    EXPECT_FALSE(salvaged.report.lossy()) << salvaged.report.to_string();
    expect_same(salvaged.trace, original, tables, "salvage_trace_file");
  }
  if (version != kTraceVersionLegacy) {  // v1 has no chunks to tail
    expect_same(tail_whole_file(path), original, tables, "TraceTailer");
  }
  {
    const Trace loaded = read_trace_file(path);
    const Window whole{original.start_ts(), original.end_ts()};
    expect_same(clip_trace(TraceView(loaded), whole),
                clip_trace(TraceView(original), whole), tables, "clip_trace");
  }

  // Repair and clip read every entry point's view alike: v1/v2 events in
  // the file bytes, v3 columns, a salvaged trace, accumulated deltas.
  const Trace repaired =
      repair_trace_semantics(TraceView(original), util::Strictness::Repair,
                             nullptr)
          .trace;
  const Window cut{45, 250};  // cuts sections at both edges
  const Trace clipped = clip_trace(TraceView(original), cut);
  const auto check_fixers = [&](const TraceView& view,
                                const std::string& name) {
    expect_same(
        repair_trace_semantics(view, util::Strictness::Repair, nullptr).trace,
        repaired, tables, name + " repaired");
    expect_same(clip_trace(view, cut), clipped, tables, name + " clipped");
  };
  check_fixers(MappedTrace(path).view(), "MappedTrace");
  check_fixers(TraceView(salvage_trace_file(path).trace), "salvage");
  if (version != kTraceVersionLegacy) {
    check_fixers(TraceView(tail_whole_file(path)), "TraceTailer");
  }
}

void check_every_reader(std::uint32_t version) {
  const Trace original = rich_trace();
  // A whole-window clip of this trace is the trace itself.
  expect_same(clip_trace(TraceView(original),
                         Window{original.start_ts(), original.end_ts()}),
              original, original.tables(), "clip_trace identity");
  const std::string path =
      temp_path("cla_reader_agreement_v" + std::to_string(version) + ".clat");
  write_trace_file(original, path, version);
  check_every_reader(path, version, original);
  std::remove(path.c_str());
}

TEST(ReaderAgreement, V1FileAgreesAcrossEveryReader) {
  check_every_reader(golden_path("golden_v1.clat"), kTraceVersionLegacy,
                     read_trace_file(golden_path("golden_v2.clat")));
}

TEST(ReaderAgreement, V2FileAgreesAcrossEveryReader) {
  check_every_reader(kTraceVersion);
}

TEST(ReaderAgreement, V3FileAgreesAcrossEveryReader) {
  check_every_reader(kTraceVersionV3);
}

TEST(ReaderAgreement, IncrementalReportMatchesPipeline) {
  // IncrementalAnalyzer promises a report byte-identical to the one-shot
  // Pipeline over the same trace, call-stack frames included.
  for (std::uint32_t version : {kTraceVersion, kTraceVersionV3}) {
    const std::string path = temp_path(
        "cla_reader_agreement_inc_v" + std::to_string(version) + ".clat");
    write_trace_file(rich_trace(), path, version);
    analysis::Pipeline pipeline;
    pipeline.load_file(path);
    analysis::IncrementalAnalyzer incremental;
    incremental.append(read_trace_file(path));
    const std::string json = pipeline.report_json();
    EXPECT_EQ(incremental.report_json(), json) << "v" << version;
    EXPECT_NE(json.find("push+0x12 (app)"), std::string::npos);
    std::remove(path.c_str());
  }
}

/// A live-style file: events land in several small chunks per thread and
/// the name, stack and symbol chunks trail them.
std::string write_live_style(const Trace& trace, std::uint32_t version) {
  const std::string path = temp_path(
      "cla_reader_agreement_live_v" + std::to_string(version) + ".clat");
  ChunkedTraceWriter writer(path, version);
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    for (std::size_t begin = 0; begin < events.size(); begin += 3) {
      const std::size_t n = std::min<std::size_t>(3, events.size() - begin);
      EXPECT_EQ(writer.write_events(tid, events.data() + begin, n), n);
    }
  }
  for (const auto& [object, name] : trace.object_names()) {
    writer.write_object_name(object, name);
  }
  for (const auto& [tid, name] : trace.thread_names()) {
    writer.write_thread_name(tid, name);
  }
  for (const auto& [id, pcs] : trace.call_stacks()) {
    writer.write_call_stack(id, pcs.data(), pcs.size());
  }
  for (const auto& [pc, name] : trace.frame_symbols()) {
    writer.write_frame_symbol(pc, name);
  }
  const RuntimeWarning warning{
      static_cast<std::uint32_t>(util::DiagCode::CLA_W_IO_RETRIED), 2};
  writer.write_warnings(&warning, 1);
  writer.write_meta(trace.dropped_events(), /*clean_close=*/true);
  writer.close();
  return path;
}

TEST(ReaderAgreement, TrailingTableChunksReachEveryReader) {
  // Table chunks may trail the event chunks (the streaming writer emits
  // them as they are registered); every reader still ends up with them.
  for (std::uint32_t version : {kTraceVersion, kTraceVersionV3}) {
    const Trace original = rich_trace();
    const std::string path = write_live_style(original, version);
    std::ifstream in(path, std::ios::binary);
    expect_same(read_trace(in), original, original.tables(), "read_trace");
    analysis::Pipeline pipeline;
    pipeline.load_file(path);
    expect_same(pipeline.view(), original, original.tables(), "load_file");
    expect_same(tail_whole_file(path), original, original.tables(),
                "TraceTailer");
    std::remove(path.c_str());
  }
}

TEST(ReaderAgreement, MultiChunkThreadsReproduceTheWholeTrace) {
  // Threads split over many tiny chunks are stitched back in file order.
  for (std::uint32_t version : {kTraceVersion, kTraceVersionV3}) {
    const Trace original = rich_trace();
    const std::string path = write_live_style(original, version);
    std::ifstream in(path, std::ios::binary);
    analysis::Pipeline pipeline;
    pipeline.load_stream(in);
    expect_same(pipeline.view(), original, original.tables(), "load_stream");
    const SalvageResult salvaged = salvage_trace_file(path);
    expect_same(salvaged.trace, original, original.tables(), "salvage");
    std::remove(path.c_str());
  }
}

// ---- strictness of the stream loaders ------------------------------------

std::string serialized(std::uint32_t version = kTraceVersion) {
  if (version == kTraceVersionLegacy) {
    std::ifstream in(golden_path("golden_v1.clat"), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }
  TraceBuilder b;
  b.name_object(42, "L1");
  b.name_thread(0, "main");
  b.thread(0).start(0).create(0, 1).join(1, 1, 21).exit(22);
  b.thread(1)
      .start(0, 0)
      .lock(42, 1, 1, 5)
      .lock(42, 6, 9, 15)
      .barrier(44, 16, 18)
      .exit(20);
  std::stringstream buffer;
  write_trace(b.finish_unchecked(), buffer, version);
  return buffer.str();
}

/// Both stream entry points must reject `bytes` with a clean error.
void expect_stream_loaders_reject(const std::string& bytes,
                                  const std::string& what) {
  {
    std::stringstream in(bytes);
    EXPECT_THROW(read_trace(in), util::Error) << what << " (read_trace)";
  }
  {
    std::stringstream in(bytes);
    analysis::Pipeline pipeline;
    EXPECT_THROW(pipeline.load_stream(in), util::Error)
        << what << " (load_stream)";
  }
}

TEST(ReaderAgreement, StreamLoadersRejectBadMagic) {
  expect_stream_loaders_reject("XXXX....definitely not a trace....",
                               "bad magic");
}

TEST(ReaderAgreement, StreamLoadersRejectUnsupportedVersion) {
  std::string bytes = serialized();
  bytes[4] = 99;  // version follows the 4-byte magic
  expect_stream_loaders_reject(bytes, "version 99");
}

TEST(ReaderAgreement, StreamLoadersRejectTruncationAtEveryRegion) {
  for (std::uint32_t version :
       {kTraceVersionLegacy, kTraceVersion, kTraceVersionV3}) {
    const std::string full = serialized(version);
    // Preamble, name/chunk headers, mid-payload, torn tail.
    for (std::size_t cut :
         {std::size_t{2}, std::size_t{6}, std::size_t{14}, std::size_t{20},
          full.size() / 2, full.size() - 5}) {
      expect_stream_loaders_reject(full.substr(0, cut),
                                   "v" + std::to_string(version) +
                                       " cut=" + std::to_string(cut));
    }
  }
}

TEST(ReaderAgreement, StreamLoadersRejectCorruptEventCount) {
  // Patch the v1 thread count to more blocks than the file holds: the
  // load must fail with a truncation error, not a giant allocation.
  std::string bytes = serialized(kTraceVersionLegacy);
  ++bytes[8];  // thread_count (little-endian u32 after magic+version)
  expect_stream_loaders_reject(bytes, "thread count 3");
}

TEST(ReaderAgreement, StreamLoadersRejectCrcMismatch) {
  // One flipped payload byte inside the first chunk: the CRC check must
  // reject the stream rather than hand out damaged events.
  std::string bytes = serialized();
  ASSERT_GT(bytes.size(), 30u);
  bytes[26] ^= 0x40;  // inside the first chunk's payload
  expect_stream_loaders_reject(bytes, "crc mismatch");
}

}  // namespace
}  // namespace cla::trace

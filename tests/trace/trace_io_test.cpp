#include "cla/trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cla/trace/builder.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

Trace sample_trace() {
  TraceBuilder b;
  b.name_object(42, "L1");
  b.name_object(43, "tq[0].qlock");
  b.name_thread(0, "main");
  b.thread(0).start(0).create(0, 1).join(1, 1, 21).exit(22);
  b.thread(1)
      .start(0, 0)
      .lock(42, 1, 1, 5)
      .lock(43, 6, 9, 15)
      .barrier(44, 16, 18)
      .exit(20);
  return b.finish_unchecked();
}

void expect_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.thread_count(), b.thread_count());
  ASSERT_EQ(a.event_count(), b.event_count());
  for (ThreadId tid = 0; tid < a.thread_count(); ++tid) {
    const auto ea = a.thread_events(tid);
    const auto eb = b.thread_events(tid);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
  }
  EXPECT_EQ(a.object_names(), b.object_names());
  EXPECT_EQ(a.thread_names(), b.thread_names());
}

TEST(TraceIo, StreamRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const Trace loaded = read_trace(buffer);
  expect_equal(original, loaded);
}

TEST(TraceIo, LegacyV1RoundTrip) {
  // v1 files stay readable forever, but no writer emits them any more:
  // the checked-in v1 fixture loads to the same trace as its v2 twin.
  const std::string data_dir = CLA_TEST_DATA_DIR;
  std::ifstream file(data_dir + "/golden_v1.clat", std::ios::binary);
  std::stringstream in;
  in << file.rdbuf();
  EXPECT_EQ(in.str()[4], 1);  // on-disk version byte
  const Trace loaded = read_trace(in);
  expect_equal(read_trace_file(data_dir + "/golden_v2.clat"), loaded);
  std::stringstream out;
  EXPECT_THROW(write_trace(loaded, out, kTraceVersionLegacy), util::Error);
}

TEST(TraceIo, V2RoundTripsDroppedEventCount) {
  Trace original = sample_trace();
  original.set_dropped_events(17);
  std::stringstream buffer;
  write_trace(original, buffer);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.dropped_events(), 17u);
}

TEST(TraceIo, ChunkedWriterMatchesWholeTraceWriter) {
  // Writing a trace incrementally (per-thread slices through the fd-based
  // chunked writer) must load back identical to write_trace.
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_io_chunked.clat").string();
  const Trace original = sample_trace();
  {
    ChunkedTraceWriter writer(path);
    for (const auto& [object, name] : original.object_names()) {
      writer.write_object_name(object, name);
    }
    for (const auto& [tid, name] : original.thread_names()) {
      writer.write_thread_name(tid, name);
    }
    for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
      const auto events = original.thread_events(tid);
      // Slice each thread into several chunks to exercise block stitching.
      for (std::size_t at = 0; at < events.size(); at += 2) {
        const std::size_t n = std::min<std::size_t>(2, events.size() - at);
        writer.write_events(tid, events.data() + at, n);
      }
    }
    writer.write_meta(/*dropped_events=*/0, /*clean_close=*/true);
    ASSERT_TRUE(writer.ok());
    writer.close();
  }
  const Trace loaded = read_trace_file(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_io_test.clat").string();
  const Trace original = sample_trace();
  write_trace_file(original, path);
  const Trace loaded = read_trace_file(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer("NOTATRACEFILE........");
  EXPECT_THROW(read_trace(buffer), util::Error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const std::string full = buffer.str();
  for (std::size_t cut : {std::size_t{5}, std::size_t{12}, std::size_t{40}, full.size() - 8}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(read_trace(truncated), util::Error) << "cut=" << cut;
  }
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  std::string bytes = buffer.str();
  bytes[4] = 99;  // version field follows the 4-byte magic
  std::stringstream patched(bytes);
  EXPECT_THROW(read_trace(patched), util::Error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/trace.clat"), util::Error);
}

TEST(TraceIo, UnwritablePathThrows) {
  const Trace original = sample_trace();
  EXPECT_THROW(write_trace_file(original, "/nonexistent/dir/trace.clat"),
               util::Error);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const Trace empty;
  std::stringstream buffer;
  write_trace(empty, buffer);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.thread_count(), 0u);
  EXPECT_EQ(loaded.event_count(), 0u);
}

// ---- v3 compact format ---------------------------------------------------

TEST(TraceIo, V3RoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(original, buffer, kTraceVersionV3);
  const std::string bytes = buffer.str();
  EXPECT_EQ(bytes[4], 3);  // on-disk version byte
  std::stringstream in(bytes);
  const Trace loaded = read_trace(in);
  expect_equal(original, loaded);
}

TEST(TraceIo, V3IsSmallerThanV2) {
  // Delta+varint compression must pay off on a realistic stream: nearby
  // timestamps and a small object set. 4x is conservative (we see ~7x).
  TraceBuilder b;
  // A copy: thread() returns a temporary.
  ThreadScript t = b.thread(0).start(0);
  std::uint64_t ts = 1'000'000'000;
  for (int i = 0; i < 5'000; ++i) {
    ts += 700 + (i % 13);
    t.lock(42 + (i % 3), ts, ts + 40, ts + 400);
    ts += 900;
  }
  t.exit(ts + 1);
  const Trace trace = b.finish_unchecked();
  std::stringstream v2, v3;
  write_trace(trace, v2, kTraceVersion);
  write_trace(trace, v3, kTraceVersionV3);
  EXPECT_LT(v3.str().size() * 4, v2.str().size());
  std::stringstream in(v3.str());
  expect_equal(trace, read_trace(in));
}

TEST(TraceIo, V3ChunkedWriterRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_io_v3_chunked.clat")
          .string();
  const Trace original = sample_trace();
  {
    ChunkedTraceWriter writer(path, kTraceVersionV3);
    EXPECT_EQ(writer.version(), kTraceVersionV3);
    for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
      const auto events = original.thread_events(tid);
      // Two slices per thread: v3 deltas must restart per chunk.
      const std::size_t half = events.size() / 2;
      writer.write_events(tid, events.data(), half);
      writer.write_events(tid, events.data() + half, events.size() - half);
    }
    for (const auto& [object, name] : original.object_names())
      writer.write_object_name(object, name);
    for (const auto& [tid, name] : original.thread_names())
      writer.write_thread_name(tid, name);
    writer.write_meta(/*dropped_events=*/0, /*clean_close=*/true);
    ASSERT_TRUE(writer.ok());
    writer.close();
  }
  expect_equal(original, read_trace_file(path));
  std::filesystem::remove(path);
}

TEST(TraceIo, V3ExtremeFieldValuesRoundTrip) {
  // Worst-case varint inputs: kNoObject/kNoArg (all ones), backwards
  // object deltas, 10-byte zigzag encodings.
  TraceBuilder b;
  // A copy: thread() returns a temporary.
  ThreadScript t = b.thread(0).start(0);
  t.lock(kNoObject - 1, 10, 11, 12);
  t.lock(1, 20, 21, 22);  // large negative object delta
  t.lock(0x8000'0000'0000'0000ull, 30, 31, 32);
  t.exit(40);
  const Trace trace = b.finish_unchecked();
  std::stringstream buffer;
  write_trace(trace, buffer, kTraceVersionV3);
  std::stringstream in(buffer.str());
  expect_equal(trace, read_trace(in));
}

TEST(TraceIo, V3DecoderRejectsEveryTruncation) {
  // The varint decoder sees raw file bytes; any prefix of a valid payload
  // must be rejected cleanly (no crash, no over-read).
  const Trace original = sample_trace();
  const auto events = original.thread_events(1);
  std::string payload;
  encode_events_v3(1, events.data(), events.size(), payload);

  ThreadId tid = 0;
  std::uint32_t count = 0;
  ASSERT_TRUE(peek_events_v3(payload.data(), payload.size(), tid, count));
  ASSERT_EQ(tid, 1u);
  ASSERT_EQ(count, events.size());
  std::vector<Event> out(count);
  ASSERT_TRUE(decode_events_v3(payload.data(), payload.size(), out.data()));
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], events[i]);

  for (std::size_t len = 0; len < payload.size(); ++len) {
    if (peek_events_v3(payload.data(), len, tid, count)) {
      std::vector<Event> buf(count);
      EXPECT_FALSE(decode_events_v3(payload.data(), len, buf.data()))
          << "accepted truncation at " << len << "/" << payload.size();
    }
  }
  // Trailing garbage (a length that overstates the stream) must also fail.
  std::string padded = payload + std::string(3, '\x7f');
  std::vector<Event> buf(count);
  EXPECT_FALSE(decode_events_v3(padded.data(), padded.size(), buf.data()));
}

TEST(TraceIo, V3DecoderRejectsOverlongVarints) {
  // 11-byte varints (continuation bit never clears) and 10-byte encodings
  // with excess high bits are invalid; both would over-read u64.
  std::string payload;
  const std::uint32_t tid = 0, count = 1;
  payload.append(reinterpret_cast<const char*>(&tid), 4);
  payload.append(reinterpret_cast<const char*>(&count), 4);
  payload.append(11, '\xff');  // never-terminating varint
  std::vector<Event> buf(1);
  EXPECT_FALSE(decode_events_v3(payload.data(), payload.size(), buf.data()));
}

TEST(TraceIo, ParseTraceFormat) {
  std::uint32_t version = 0;
  EXPECT_FALSE(parse_trace_format("v1", version));  // read-only
  EXPECT_FALSE(parse_trace_format("1", version));
  EXPECT_TRUE(parse_trace_format("v2", version));
  EXPECT_EQ(version, kTraceVersion);
  EXPECT_TRUE(parse_trace_format("v3", version));
  EXPECT_EQ(version, kTraceVersionV3);
  EXPECT_TRUE(parse_trace_format("3", version));
  EXPECT_EQ(version, kTraceVersionV3);
  EXPECT_FALSE(parse_trace_format("v4", version));
  EXPECT_FALSE(parse_trace_format("", version));
  EXPECT_FALSE(parse_trace_format("latest", version));
}

TEST(TraceIo, ConvertTraceFileAcrossAllVersions) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto src = (dir / "cla_convert_src.clat").string();
  const Trace original = sample_trace();
  write_trace_file(original, src, kTraceVersion);
  for (std::uint32_t version : {2u, 3u}) {
    const auto dst =
        (dir / ("cla_convert_v" + std::to_string(version) + ".clat")).string();
    convert_trace_file(src, dst, version);
    expect_equal(original, read_trace_file(dst));
    std::filesystem::remove(dst);
  }
  const auto v1 = (dir / "cla_convert_v1.clat").string();
  EXPECT_THROW(convert_trace_file(src, v1, kTraceVersionLegacy), util::Error);
  EXPECT_FALSE(std::filesystem::exists(v1));
  std::filesystem::remove(src);
}

}  // namespace
}  // namespace cla::trace

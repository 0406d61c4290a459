// Byte pins for every on-disk writer: `write_trace` (v2 and v3), a
// scripted `ChunkedTraceWriter` session (v2 and v3) and an `AggStore`
// holding two fixed records must reproduce the files checked in under
// tests/data/ byte for byte. The fixtures were written by the build
// before the framed-file layer was shared, so a refactor of the frame
// codec, the payload field codec or the I/O loops cannot change the
// formats unnoticed. On a mismatch the fresh file is kept in the temp
// directory for diffing (its path is in the failure message).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cla/agg/record.hpp"
#include "cla/agg/store.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/trace_io.hpp"

namespace {

using namespace cla::trace;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Compares `written` with the fixture `name`; removes `written` on a match.
void expect_pinned(const std::string& written, const std::string& name) {
  const std::string fixture = std::string(CLA_TEST_DATA_DIR) + "/" + name;
  ASSERT_TRUE(std::filesystem::exists(fixture)) << fixture;
  const std::string want = read_bytes(fixture);
  const std::string got = read_bytes(written);
  EXPECT_EQ(got.size(), want.size())
      << name << " (fresh copy: " << written << ")";
  if (got == want) {
    std::remove(written.c_str());
    return;
  }
  std::size_t first = 0;
  while (first < std::min(got.size(), want.size()) &&
         got[first] == want[first]) {
    ++first;
  }
  ADD_FAILURE() << name << " differs from its pin at byte " << first
                << " (fresh copy: " << written << ")";
}

/// The golden fixture plus one entry of every table kind v2/v3 carry.
Trace golden_trace() {
  Trace trace =
      read_trace_file(std::string(CLA_TEST_DATA_DIR) + "/golden_v2.clat");
  trace.set_call_stack(1, {0x4000, 0x5000});
  trace.set_frame_symbol(0x4000, "enqueue+0x10 (pin)");
  trace.set_runtime_warning(3, 7);
  trace.set_dropped_events(2);
  return trace;
}

TEST(FormatPins, WriteTraceMatchesPinnedBytes) {
  const Trace trace = golden_trace();
  for (const std::uint32_t version : {kTraceVersion, kTraceVersionV3}) {
    const std::string name =
        "pin_write_trace_v" + std::to_string(version) + ".clat";
    const std::string path = temp_path(name);
    write_trace_file(trace, path, version);
    expect_pinned(path, name);
  }
}

TEST(FormatPins, ChunkedWriterSessionMatchesPinnedBytes) {
  TraceBuilder b;
  b.thread(0).start(0).create(1, 1).join(1, 2, 90).exit(95);
  b.thread(1)
      .start(0, 1)
      .lock(42, 3, 4, 10)
      .lock(43, 12, 20, 30)
      .barrier(44, 31, 40)
      .exit(80);
  const Trace trace = b.finish_unchecked();
  for (const std::uint32_t version : {kTraceVersion, kTraceVersionV3}) {
    const std::string name =
        "pin_writer_session_v" + std::to_string(version) + ".clat";
    const std::string path = temp_path(name);
    {
      ChunkedTraceWriter writer(path, version);
      writer.write_object_name(42, "L1");
      writer.write_thread_name(0, "main");
      const std::uint64_t pcs[] = {0x1000, 0x2000};
      writer.write_call_stack(1, pcs, 2);
      const auto t1 = trace.thread_events(1);
      ASSERT_EQ(writer.write_events(1, t1.data(), 3), 3u);
      writer.write_object_name(43, "tq[0].qlock");
      ASSERT_EQ(writer.write_events(1, t1.data() + 3, t1.size() - 3),
                t1.size() - 3);
      const auto t0 = trace.thread_events(0);
      ASSERT_EQ(writer.write_events(0, t0.data(), t0.size()), t0.size());
      writer.write_frame_symbol(0x1000, "push+0x12 (pin)");
      const RuntimeWarning warnings[] = {{3, 7}, {5, 11}};
      writer.write_warnings(warnings, 2);
      writer.write_meta(4, /*clean_close=*/true);
      EXPECT_TRUE(writer.ok());
      writer.close();
    }
    expect_pinned(path, name);
  }
}

cla::agg::RunRecord pin_record(const std::string& run_id, std::uint64_t seq) {
  cla::agg::RunRecord record;
  record.run_id = run_id;
  record.host = "host-pin";
  record.label = "rel-1";
  record.seq = seq;
  record.wall_ns = 123'456'789;
  record.worker_threads = 4;
  record.events = 1000 + seq;
  record.dropped_events = 1;
  record.skipped_bytes = 2;
  record.windows_shed = 3;
  record.rotations = 4;
  cla::agg::LockAgg lock;
  lock.name = "giant_lock";
  lock.cp_hold_ns = 2'000'000;
  lock.cp_invocations = 120;
  lock.cp_contended = 40;
  lock.invocations = 480;
  lock.contended = 100;
  lock.wait_ns = 700'000;
  lock.hold_ns = 3'000'000;
  record.locks.push_back(lock);
  lock.name = "queue_lock";
  lock.cp_hold_ns = 500'000;
  record.locks.push_back(lock);
  return record;
}

TEST(FormatPins, AggStoreMatchesPinnedBytes) {
  const std::string dir = temp_path("cla_pin_agg_store");
  std::filesystem::remove_all(dir);
  {
    cla::agg::AggStore store(dir, cla::agg::AggStore::Mode::ReadWrite);
    ASSERT_TRUE(store.append(pin_record("run-a", 0)));
    ASSERT_TRUE(store.append(pin_record("run-b", 7)));
  }
  const std::string path = temp_path("pin_agg_store.claa");
  std::filesystem::copy_file(cla::agg::AggStore::store_file(dir), path,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::remove_all(dir);
  expect_pinned(path, "pin_agg_store.claa");
}

}  // namespace

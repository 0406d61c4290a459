// Trace salvage: recovering analyzable traces from torn, truncated and
// corrupted `.clat` files. The core guarantee under test: for ANY
// truncation point, read_trace either succeeds or throws cleanly, and
// salvage_trace either yields a validate()-clean trace or throws cleanly
// — never a crash, never an invalid trace.
#include "cla/trace/salvage.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "cla/trace/builder.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

Trace sample_trace() {
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
  return b.finish_unchecked();
}

std::string serialized(const Trace& trace,
                       std::uint32_t version = kTraceVersion) {
  std::stringstream buffer;
  write_trace(trace, buffer, version);
  return buffer.str();
}

/// A checked-in fixture's bytes (v1 is read-only, so v1 inputs come from
/// tests/data/golden_v1.clat).
std::string fixture_bytes(const char* name) {
  std::ifstream in(std::string(CLA_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

SalvageResult salvage_bytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return salvage_trace(in);
}

Event make_event(std::uint64_t ts, EventType type, ObjectId object,
                 std::uint64_t arg = kNoArg) {
  Event e{};
  e.ts = ts;
  e.type = type;
  e.object = object;
  e.arg = arg;
  return e;
}

struct ChunkBoundary {
  std::size_t end;       ///< byte offset just past this chunk
  bool events_so_far;    ///< an Events chunk ends at or before `end`
};

/// Chunk boundaries of a v2 file: positions where a truncation leaves
/// only whole chunks behind.
std::vector<ChunkBoundary> chunk_boundaries(const std::string& bytes) {
  std::vector<ChunkBoundary> at;
  std::size_t pos = 8;  // preamble
  bool events_seen = false;
  while (pos + 16 <= bytes.size()) {
    std::uint32_t kind = 0;
    std::uint32_t payload = 0;
    std::memcpy(&kind, bytes.data() + pos + 4, 4);
    std::memcpy(&payload, bytes.data() + pos + 8, 4);
    pos += 16 + payload;
    events_seen = events_seen || kind == static_cast<std::uint32_t>(
                                             ChunkKind::Events);
    at.push_back(ChunkBoundary{pos, events_seen});
  }
  return at;
}

TEST(Salvage, CleanV2FileIsLossless) {
  const Trace original = sample_trace();
  SalvageResult got = salvage_bytes(serialized(original));
  got.trace.validate();
  EXPECT_EQ(got.trace.event_count(), original.event_count());
  EXPECT_TRUE(got.report.clean_close);
  EXPECT_FALSE(got.report.lossy());
  EXPECT_GT(got.report.chunks_recovered, 0u);
  EXPECT_EQ(got.report.synthesized_events, 0u);
  EXPECT_EQ(got.trace.object_names().at(42), "L1");
}

TEST(Salvage, CleanV1FileIsLossless) {
  const Trace original =
      read_trace_file(std::string(CLA_TEST_DATA_DIR) + "/golden_v2.clat");
  SalvageResult got = salvage_bytes(fixture_bytes("golden_v1.clat"));
  got.trace.validate();
  EXPECT_EQ(got.trace.event_count(), original.event_count());
  EXPECT_TRUE(got.report.clean_close);
  EXPECT_FALSE(got.report.lossy());
}

TEST(Salvage, RuntimeDroppedEventsSurvive) {
  Trace original = sample_trace();
  original.set_dropped_events(17);
  SalvageResult got = salvage_bytes(serialized(original));
  EXPECT_EQ(got.report.runtime_dropped_events, 17u);
  EXPECT_EQ(got.trace.dropped_events(), 17u);
}

// Satellite (d): fuzz every byte boundary of both formats. Strict reads
// throw cla::util::Error or succeed; salvage yields a valid trace or
// throws cla::util::Error. Nothing may crash or hand out a trace that
// fails validate().
TEST(Salvage, TruncationAtEveryByteNeverCrashes) {
  for (const std::string& full :
       {fixture_bytes("golden_v1.clat"), serialized(sample_trace())}) {
    ASSERT_GT(full.size(), 8u);
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      const std::string prefix = full.substr(0, cut);
      try {
        std::stringstream in(prefix);
        (void)read_trace(in);
      } catch (const util::Error&) {
        // clean rejection is fine
      }
      try {
        SalvageResult got = salvage_bytes(prefix);
        got.trace.validate();
        if (cut < full.size()) EXPECT_TRUE(got.report.lossy());
      } catch (const util::Error&) {
        // nothing recoverable is fine (e.g. cut inside the preamble)
      }
    }
  }
}

// Acceptance: truncating a v2 file at ANY chunk boundary salvages to a
// validate()-clean trace with zero torn bytes — only whole chunks exist,
// so nothing needs CRC-dropping, and every recovered event is intact.
TEST(Salvage, TruncationAtChunkBoundariesKeepsAllWholeChunks) {
  const std::string full = serialized(sample_trace());
  for (const ChunkBoundary& boundary : chunk_boundaries(full)) {
    const std::size_t cut = boundary.end;
    if (cut >= full.size()) continue;  // the full file is the clean case
    if (!boundary.events_so_far) continue;  // nothing recoverable yet
    SalvageResult got = salvage_bytes(full.substr(0, cut));
    got.trace.validate();
    EXPECT_EQ(got.report.bytes_dropped, 0u) << "cut=" << cut;
    EXPECT_EQ(got.report.chunks_dropped, 0u) << "cut=" << cut;
    EXPECT_FALSE(got.report.clean_close) << "cut=" << cut;
    EXPECT_TRUE(got.report.lossy()) << "cut=" << cut;
  }
}

TEST(Salvage, TornTailIsDroppedAndReported) {
  const std::string full = serialized(sample_trace());
  const std::vector<ChunkBoundary> bounds = chunk_boundaries(full);
  ASSERT_GE(bounds.size(), 2u);
  // Cut 7 bytes into the last chunk: its header survives, its payload is
  // torn.
  const std::size_t cut = bounds[bounds.size() - 2].end + 7;
  SalvageResult got = salvage_bytes(full.substr(0, cut));
  got.trace.validate();
  EXPECT_TRUE(got.report.torn_tail);
  EXPECT_GT(got.report.bytes_dropped, 0u);
  EXPECT_TRUE(got.report.lossy());
}

TEST(Salvage, CorruptChunkIsSkippedAndStreamResyncs) {
  const Trace original = sample_trace();
  std::string bytes = serialized(original);
  const std::vector<ChunkBoundary> bounds = chunk_boundaries(bytes);
  ASSERT_GE(bounds.size(), 3u);
  // Damage the payload of the second chunk; later chunks must still load.
  bytes[bounds[0].end + 20] ^= 0xFF;
  SalvageResult got = salvage_bytes(bytes);
  got.trace.validate();
  EXPECT_GE(got.report.chunks_dropped, 1u);
  EXPECT_GT(got.report.chunks_recovered, 0u);
  EXPECT_TRUE(got.report.lossy());
  EXPECT_LT(got.trace.event_count(), original.event_count() +
                                         got.report.synthesized_events + 1);
}

TEST(Salvage, GarbageThrows) {
  EXPECT_THROW(salvage_bytes("not a clat file at all, not even close"),
               util::Error);
  EXPECT_THROW(salvage_bytes(""), util::Error);
}

TEST(Salvage, RepairClosesDanglingCriticalSection) {
  // Thread died holding lock 7: acquire/acquired recorded, release and
  // exit lost with the crash.
  Trace trace;
  const Event events[] = {
      make_event(0, EventType::ThreadStart, kNoObject),
      make_event(10, EventType::MutexAcquire, 7),
      make_event(12, EventType::MutexAcquired, 7, 0),
  };
  trace.append_thread_events(0, events);
  SalvageReport report;
  trace = repair_trace(TraceView(trace), report);
  trace.validate();
  const auto repaired = trace.thread_events(0);
  ASSERT_EQ(repaired.size(), 5u);
  EXPECT_EQ(repaired[3].type, EventType::MutexReleased);
  EXPECT_EQ(repaired[3].object, 7u);
  EXPECT_EQ(repaired[4].type, EventType::ThreadExit);
  EXPECT_EQ(report.synthesized_events, 2u);
  EXPECT_EQ(report.threads_repaired, 1u);
}

TEST(Salvage, RepairResolvesPendingAcquire) {
  // Crash while blocked acquiring: the acquire must be completed and the
  // lock released so per-mutex cycles stay consistent.
  Trace trace;
  const Event events[] = {
      make_event(0, EventType::ThreadStart, kNoObject),
      make_event(10, EventType::MutexAcquire, 7),
  };
  trace.append_thread_events(0, events);
  SalvageReport report;
  trace = repair_trace(TraceView(trace), report);
  trace.validate();
  const auto repaired = trace.thread_events(0);
  ASSERT_EQ(repaired.size(), 5u);
  EXPECT_EQ(repaired[2].type, EventType::MutexAcquired);
  EXPECT_EQ(repaired[3].type, EventType::MutexReleased);
  EXPECT_EQ(repaired[4].type, EventType::ThreadExit);
}

TEST(Salvage, RepairStubsThreadsWithNoSurvivingEvents) {
  // All of thread 0's chunks were lost; thread 1 survived. Validation
  // requires a well-formed thread 0, so repair stubs it.
  Trace trace;
  const Event events[] = {
      make_event(5, EventType::ThreadStart, kNoObject),
      make_event(9, EventType::ThreadExit, kNoObject),
  };
  trace.append_thread_events(1, events);
  SalvageReport report;
  trace = repair_trace(TraceView(trace), report);
  trace.validate();
  ASSERT_EQ(trace.thread_count(), 2u);
  ASSERT_EQ(trace.thread_events(0).size(), 2u);
  EXPECT_EQ(trace.thread_events(0)[0].type, EventType::ThreadStart);
  EXPECT_EQ(trace.thread_events(0)[1].type, EventType::ThreadExit);
  EXPECT_GE(report.threads_repaired, 1u);
}

TEST(Salvage, RepairClampsNonMonotoneTimestamps) {
  Trace trace;
  const Event events[] = {
      make_event(10, EventType::ThreadStart, kNoObject),
      make_event(5, EventType::BarrierArrive, 3, 0),  // clock went backwards
      make_event(20, EventType::BarrierLeave, 3, 0),
      make_event(30, EventType::ThreadExit, kNoObject),
  };
  trace.append_thread_events(0, events);
  SalvageReport report;
  trace = repair_trace(TraceView(trace), report);
  trace.validate();  // would throw on a backwards timestamp
  EXPECT_GE(trace.thread_events(0)[1].ts, 10u);
}

TEST(Salvage, RepairPreservesCleanTraces) {
  Trace trace = sample_trace();
  const std::size_t before = trace.event_count();
  SalvageReport report;
  trace = repair_trace(TraceView(trace), report);
  trace.validate();
  EXPECT_EQ(trace.event_count(), before);
  EXPECT_EQ(report.synthesized_events, 0u);
  EXPECT_EQ(report.events_discarded, 0u);
  EXPECT_EQ(report.threads_repaired, 0u);
}

}  // namespace
}  // namespace cla::trace

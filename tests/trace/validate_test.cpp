// Semantic validator + repair engine tests (cla/trace/validate.hpp):
// every violation is reported (not just the first), severities follow the
// strict-compatibility contract, repair produces validator-clean traces,
// and the diagnostics JSON is stable (golden test).
#include "cla/trace/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

using util::DiagCode;
using util::DiagnosticSink;
using util::Severity;
using util::Strictness;

Event make(std::uint64_t ts, EventType type, ThreadId tid,
           ObjectId object = kNoObject, std::uint64_t arg = kNoArg) {
  return Event{ts, object, arg, type, 0, tid};
}

bool has_code(const DiagnosticSink& sink, DiagCode code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

std::size_t count_code(const DiagnosticSink& sink, DiagCode code) {
  std::size_t n = 0;
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

TEST(ValidateTrace, CleanTraceProducesNoDiagnostics) {
  TraceBuilder b;
  auto t0 = b.thread(0);
  t0.start(0).lock_uncontended(1, 2, 5).exit(30);
  const Trace trace = b.finish_unchecked();
  DiagnosticSink sink;
  EXPECT_TRUE(validate_trace(TraceView(trace), sink));
  EXPECT_TRUE(sink.empty());
}

TEST(ValidateTrace, EmptyTraceIsFatal) {
  Trace trace;
  DiagnosticSink sink;
  EXPECT_FALSE(validate_trace(TraceView(trace), sink));
  EXPECT_EQ(sink.fatal_count(), 1u);
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_E_NO_THREADS));
}

TEST(ValidateTrace, ReportsAllViolationsNotJustTheFirst) {
  // One thread with three independent protocol violations: an unpaired
  // unlock, a timestamp regression, and a missing ThreadExit.
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(10, EventType::MutexReleased, 0, 7));  // never acquired
  trace.add(make(5, EventType::CondSignal, 0, 9));      // ts goes backwards
  trace.add(make(20, EventType::MutexAcquire, 0, 7));   // dangling acquire
  DiagnosticSink sink;
  EXPECT_FALSE(validate_trace(TraceView(trace), sink));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_E_UNPAIRED_UNLOCK));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_E_TS_REGRESSION));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_E_DANGLING_THREAD));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_W_ACQUIRE_PENDING_AT_EXIT));
  EXPECT_GE(sink.error_count(), 3u);
}

TEST(ValidateTrace, ViolationsCarryThreadAndEventLocation) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(10, EventType::MutexReleased, 0, 7));
  trace.add(make(20, EventType::ThreadExit, 0));
  DiagnosticSink sink;
  EXPECT_FALSE(validate_trace(TraceView(trace), sink));
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  const auto& d = sink.diagnostics().front();
  EXPECT_EQ(d.code, DiagCode::CLA_E_UNPAIRED_UNLOCK);
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.tid, 0u);
  EXPECT_EQ(d.event, 1u);
}

TEST(ValidateTrace, ToleratedOdditiesAreWarnings) {
  // Cond-wait irregularities, held locks at exit and unknown thread refs
  // were all tolerated by the historic validator, so they must stay below
  // error severity (strict mode keeps accepting these traces).
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(2, EventType::CondWaitEnd, 0, 9));   // end without begin
  trace.add(make(3, EventType::MutexAcquire, 0, 7));
  trace.add(make(4, EventType::MutexAcquired, 0, 7));
  trace.add(make(5, EventType::ThreadCreate, 0, 42)); // no such thread
  trace.add(make(8, EventType::CondWaitBegin, 0, 9)); // never ends
  trace.add(make(9, EventType::ThreadExit, 0));       // lock still held
  DiagnosticSink sink;
  EXPECT_TRUE(validate_trace(TraceView(trace), sink));  // warnings only
  EXPECT_EQ(sink.error_count(), 0u);
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_W_UNPAIRED_WAIT_END));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_W_UNKNOWN_THREAD_REF));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_W_OPEN_WAIT_AT_EXIT));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_W_LOCK_HELD_AT_EXIT));
  EXPECT_NO_THROW(trace.validate());  // strict compatibility
}

TEST(ValidateTrace, StrictValidateThrowsValidationErrorListingAll) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(10, EventType::MutexReleased, 0, 7));
  trace.add(make(11, EventType::MutexReleased, 0, 7));
  trace.add(make(20, EventType::ThreadExit, 0));
  try {
    trace.validate();
    FAIL() << "validate() should have thrown";
  } catch (const util::ValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 error-severity diagnostic(s)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("CLA_E_UNPAIRED_UNLOCK"), std::string::npos) << what;
  }
}

TEST(ValidateTrace, StoredTidsAreReadByNoValidation) {
  // Thread 1's events carry tid 0. A thread is its stream position, so
  // Trace::validate(), validate_trace and the pipeline all accept it.
  TraceBuilder b;
  b.thread(0).start(0).create(1, 1).join(1, 2, 20).exit(30);
  b.thread(1).start(1, 0).lock_uncontended(7, 3, 9).exit(19);
  Trace trace = b.finish();
  for (Event& e : trace.thread_stream(1)) e.tid = 0;

  EXPECT_NO_THROW(trace.validate());
  DiagnosticSink sink;
  EXPECT_TRUE(validate_trace(TraceView(trace), sink));
  EXPECT_TRUE(sink.empty()) << sink.to_string();
  analysis::Pipeline pipeline;
  pipeline.use_trace(trace);
  EXPECT_NO_THROW(pipeline.validate_stage());
  EXPECT_TRUE(pipeline.diagnostics().empty());
}

TEST(RepairSemantics, DropsOrphansClosesDanglingAndClampsTimestamps) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(10, EventType::MutexReleased, 0, 7));  // orphan: dropped
  trace.add(make(5, EventType::CondSignal, 0, 9));      // regressed: clamped
  trace.add(make(20, EventType::MutexAcquire, 0, 7));
  trace.add(make(22, EventType::MutexAcquired, 0, 7));  // held at the end
  DiagnosticSink sink;
  const auto [fixed, summary] =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink);
  EXPECT_EQ(summary.events_discarded, 1u);
  EXPECT_EQ(summary.timestamps_clamped, 1u);
  // A released for the held mutex plus the missing ThreadExit.
  EXPECT_EQ(summary.synthesized_events, 2u);
  EXPECT_EQ(summary.threads_repaired, 1u);
  EXPECT_TRUE(summary.changed());
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_R_DROPPED_EVENTS));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_R_CLAMPED_TIMESTAMPS));
  EXPECT_TRUE(has_code(sink, DiagCode::CLA_R_SYNTHESIZED_EVENTS));

  // The repaired trace replays with zero error-severity diagnostics.
  DiagnosticSink after;
  EXPECT_TRUE(validate_trace(TraceView(fixed), after));
  EXPECT_EQ(after.error_count(), 0u);
  EXPECT_NO_THROW(fixed.validate());
}

TEST(RepairSemantics, ClosesDanglingCondWait) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(5, EventType::CondWaitBegin, 0, 9, 7));
  // The recording died inside the wait: no CondWaitEnd, no ThreadExit.
  DiagnosticSink sink;
  const Trace fixed =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink).trace;
  const auto events = fixed.thread_events(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].type, EventType::CondWaitBegin);
  EXPECT_EQ(events[2].type, EventType::CondWaitEnd);
  EXPECT_EQ(events[2].object, 9u);
  EXPECT_EQ(events[3].type, EventType::ThreadExit);
  DiagnosticSink after;
  EXPECT_TRUE(validate_trace(TraceView(fixed), after));
  EXPECT_TRUE(after.empty());  // no warnings left either
}

TEST(RepairSemantics, StubsThreadsReferencedButLost) {
  // Thread 0 creates and joins thread 3, but every chunk of thread 3 (and
  // 1, 2) was lost: the repair engine must stub them so the references
  // stay resolvable.
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(2, EventType::ThreadCreate, 0, 3));
  trace.add(make(4, EventType::JoinBegin, 0, 3));
  trace.add(make(9, EventType::JoinEnd, 0, 3));
  trace.add(make(20, EventType::ThreadExit, 0));
  ASSERT_EQ(trace.thread_count(), 1u);
  DiagnosticSink sink;
  const auto [fixed, summary] =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink);
  EXPECT_EQ(fixed.thread_count(), 4u);
  EXPECT_EQ(summary.threads_stubbed, 3u);
  EXPECT_EQ(count_code(sink, DiagCode::CLA_R_STUBBED_THREAD), 3u);
  EXPECT_NO_THROW(fixed.validate());
}

TEST(RepairSemantics, IgnoresImplausiblyLargeThreadRefs) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(2, EventType::ThreadCreate, 0, (1u << 20) + 5));  // garbage
  trace.add(make(20, EventType::ThreadExit, 0));
  DiagnosticSink sink;
  const Trace fixed =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink).trace;
  EXPECT_EQ(fixed.thread_count(), 1u);  // no billion-thread allocation
}

TEST(RepairSemantics, LenientDropsMostlyGarbageThreads) {
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(20, EventType::ThreadExit, 0));
  // Thread 1 is mostly noise: one good critical section, then more
  // unsupportable events than supportable ones.
  trace.add(make(1, EventType::ThreadStart, 1));
  trace.add(make(2, EventType::MutexAcquire, 1, 7));
  trace.add(make(3, EventType::MutexAcquired, 1, 7));
  trace.add(make(4, EventType::MutexReleased, 1, 7));
  for (std::uint64_t ts = 5; ts < 10; ++ts) {
    trace.add(make(ts, EventType::MutexReleased, 1, 9));  // never acquired
  }

  // Compare the two policies on one input.
  DiagnosticSink repair_sink;
  const RepairResult repaired =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &repair_sink);
  EXPECT_EQ(repaired.summary.threads_dropped, 0u);
  EXPECT_GT(repaired.trace.thread_events(1).size(), 2u);

  DiagnosticSink lenient_sink;
  const RepairResult lenient = repair_trace_semantics(
      TraceView(trace), Strictness::Lenient, &lenient_sink);
  EXPECT_EQ(lenient.summary.threads_dropped, 1u);
  EXPECT_TRUE(has_code(lenient_sink, DiagCode::CLA_R_DROPPED_THREAD));
  EXPECT_EQ(lenient.trace.thread_events(1).size(), 2u);  // stub Start/Exit
  EXPECT_NO_THROW(lenient.trace.validate());
}

TEST(RepairSemantics, CleanTraceIsUntouched) {
  TraceBuilder b;
  auto t0 = b.thread(0);
  t0.start(0).lock_uncontended(1, 2, 5).exit(30);
  const Trace trace = b.finish();
  DiagnosticSink sink;
  const auto [fixed, summary] =
      repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink);
  EXPECT_FALSE(summary.changed());
  EXPECT_TRUE(sink.empty());
  ASSERT_EQ(fixed.thread_count(), trace.thread_count());
  const auto before = trace.thread_events(0);
  const auto after = fixed.thread_events(0);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin(),
                         after.end()));
}

TEST(SalvageAudit, SalvagedTracePassesRepairValidationWithZeroErrors) {
  // The satellite audit distilled to a test: whatever salvage recovers
  // and repairs must replay through the new validator without a single
  // error-severity diagnostic — salvage and --strictness=repair promise
  // the same invariant.
  TraceBuilder b;
  auto t0 = b.thread(0);
  auto t1 = b.thread(1);
  t0.start(0).create(1, 1).lock(7, 2, 3, 9).join(1, 10, 41).exit(50);
  // cond_wait emits a Released for the mutex, so it must be held going in.
  t1.start(1, 0).acquire(7, 3).acquired(7, 9, true).cond_wait(9, 7, 22, 30)
      .released(7, 35).exit(40);
  const Trace full = b.finish();
  std::ostringstream out;
  write_trace(full, out);
  const std::string bytes = out.str();

  // Chop the file at a spread of byte offsets; every salvageable prefix
  // must satisfy the audit.
  std::size_t audited = 0;
  for (std::size_t keep = bytes.size(); keep > 16; keep -= 13) {
    std::istringstream torn(bytes.substr(0, keep));
    SalvageResult result;
    try {
      result = salvage_trace(torn);
    } catch (const util::Error&) {
      continue;  // nothing recoverable at this offset
    }
    ++audited;
    DiagnosticSink sink;
    EXPECT_TRUE(validate_trace(TraceView(result.trace), sink))
        << "salvaged prefix of " << keep << " bytes fails repair validation:\n"
        << sink.to_string();
    EXPECT_EQ(sink.error_count(), 0u);
  }
  EXPECT_GT(audited, 0u);
}

TEST(DiagnosticsGolden, JsonRenderingIsByteStable) {
  // Golden test: the exact JSON for a fixed broken trace. If this changes
  // unintentionally, downstream consumers of --diagnostics=json break.
  Trace trace;
  trace.add(make(0, EventType::ThreadStart, 0));
  trace.add(make(10, EventType::MutexReleased, 0, 7));
  trace.add(make(20, EventType::ThreadExit, 0));
  DiagnosticSink sink;
  repair_trace_semantics(TraceView(trace), Strictness::Repair, &sink);
  EXPECT_EQ(sink.to_json(),
            "{\n"
            "  \"counts\": {\"info\": 1, \"warning\": 0, \"error\": 0, "
            "\"fatal\": 0},\n"
            "  \"suppressed\": 0,\n"
            "  \"diagnostics\": [\n"
            "    {\"severity\": \"info\", \"code\": \"CLA_R_DROPPED_EVENTS\", "
            "\"tid\": 0, \"event\": null, \"message\": \"dropped 1 "
            "protocol-inconsistent events\"}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace cla::trace

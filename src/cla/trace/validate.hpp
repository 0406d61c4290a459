// Non-throwing semantic trace validation and the shared repair engine.
//
// validate_trace() replays every thread's events through its
// ThreadProtocol (cla/trace/protocol.hpp, the pairing rules the index and
// the sweep also use) and reports ALL violations as structured diagnostics
// (see cla/util/diagnostics.hpp) instead of throwing on the first:
// unpaired lock/unlock, double acquire, barrier re-entry, condition waits
// without a matching end, timestamp regressions, references to
// unregistered thread ids, and threads that never start or exit. Severity
// encodes the contract: `error` marks exactly the violations the historic
// Trace::validate() threw on, `warning` marks analyzable oddities it
// tolerated, so strict mode stays behaviour-compatible.
//
// repair_trace_semantics() is the deterministic fixer behind
// --strictness=repair/lenient and trace salvage (salvage.cpp delegates
// here): clamp timestamps monotone, synthesize missing ThreadStart /
// ThreadExit / unlock / barrier-leave / cond-end events, drop exactly the
// events the automaton rejects, stub referenced-but-lost threads, and —
// under lenient — drop threads that are mostly garbage. Every repair is
// itself emitted as a diagnostic so reports can print a trace-health
// section. After repair, validate_trace() reports no errors.
#pragma once

#include <cstdint>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/diagnostics.hpp"

namespace cla::trace {

/// Replays the whole trace and appends one diagnostic per violation to
/// `sink` (bounded by the sink's cap). Returns true iff no error- or
/// fatal-severity diagnostic was produced by this call. The TraceView
/// overload runs the same checks read-only over a view (e.g. an
/// mmap-backed load), except one: a view takes each event's tid from its
/// stream position, so CLA_E_TID_MISMATCH fires only on a Trace. So
/// Trace::validate() (which IncrementalAnalyzer runs when validate = true)
/// rejects a stored-tid mismatch that the batch pipeline, validating its
/// view, accepts.
bool validate_trace(const Trace& trace, util::DiagnosticSink& sink);
bool validate_trace(const TraceView& view, util::DiagnosticSink& sink);

/// What repair_trace_semantics() did to a trace.
struct RepairSummary {
  std::uint64_t synthesized_events = 0;  ///< repair events added
  std::uint64_t events_discarded = 0;    ///< orphan events dropped
  std::uint64_t timestamps_clamped = 0;  ///< non-monotone timestamps fixed
  std::uint32_t threads_repaired = 0;    ///< threads needing any change
  std::uint32_t threads_stubbed = 0;     ///< lost-but-referenced threads
  std::uint32_t threads_dropped = 0;     ///< lenient-mode thread drops

  bool changed() const noexcept {
    return synthesized_events > 0 || events_discarded > 0 ||
           timestamps_clamped > 0 || threads_repaired > 0 ||
           threads_stubbed > 0 || threads_dropped > 0;
  }
};

/// Deterministically rewrites `trace` until validate_trace() reports no
/// error-severity diagnostics. `mode` selects how aggressive the fixes
/// are: Repair keeps every thread (synthesizing and dropping events as
/// needed); Lenient additionally replaces threads whose stream is mostly
/// unsupportable with a stub Start/Exit pair. (Strict performs the same
/// repairs as Repair; callers enforce strictness *before* repairing.)
/// Each repair action is reported to `sink` (may be null).
RepairSummary repair_trace_semantics(Trace& trace, util::Strictness mode,
                                     util::DiagnosticSink* sink);

}  // namespace cla::trace

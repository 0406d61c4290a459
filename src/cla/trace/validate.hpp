// Non-throwing semantic trace validation and the shared repair engine.
// Both read a TraceView, so a Trace, a mapped `.clat` file and a salvaged
// trace are checked and fixed by the same code.
//
// validate_trace() replays every thread's events through its
// ThreadProtocol (cla/trace/protocol.hpp, the pairing rules the index and
// the sweep also use) and reports ALL violations as structured diagnostics
// (see cla/util/diagnostics.hpp) instead of throwing on the first:
// unpaired lock/unlock, double acquire, barrier re-entry, condition waits
// without a matching end, timestamp regressions, references to
// unregistered thread ids, and threads that never start or exit. Severity
// encodes the contract: `error` marks exactly the violations
// Trace::validate() throws on, `warning` marks analyzable oddities it
// tolerates.
//
// repair_trace_semantics() is the deterministic fixer behind
// --strictness=repair/lenient and trace salvage (salvage.cpp delegates
// here): clamp timestamps monotone, synthesize missing ThreadStart /
// ThreadExit / unlock / barrier-leave / cond-end events, drop exactly the
// events the automaton rejects, stub referenced-but-lost threads, and —
// under lenient — drop threads that are mostly garbage. It writes each
// fixed event once, into a new Trace, and reports every repair as a
// diagnostic so reports can print a trace-health section. After repair,
// validate_trace() reports no errors.
#pragma once

#include <cstdint>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/diagnostics.hpp"

namespace cla::trace {

/// Replays the whole trace and appends one diagnostic per violation to
/// `sink` (bounded by the sink's cap). Returns true iff no error- or
/// fatal-severity diagnostic was produced by this call. A view takes each
/// event's tid from its stream position, so no tid stored in an event is
/// read (CLA_E_TID_MISMATCH is never reported).
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

/// A repaired trace and what repair did to it.
struct RepairResult {
  Trace trace;
  RepairSummary summary;
};

/// Deterministically rewrites the viewed trace into a new Trace on which
/// validate_trace() reports no error-severity diagnostics; the viewed
/// trace is not touched. `mode` selects how aggressive the fixes are:
/// Repair keeps every thread (synthesizing and dropping events as
/// needed); Lenient additionally replaces threads whose stream is mostly
/// unsupportable with a stub Start/Exit pair. (Strict performs the same
/// repairs as Repair; callers enforce strictness *before* repairing.)
/// Each repair action is reported to `sink` (may be null).
RepairResult repair_trace_semantics(const TraceView& view,
                                    util::Strictness mode,
                                    util::DiagnosticSink* sink);

}  // namespace cla::trace

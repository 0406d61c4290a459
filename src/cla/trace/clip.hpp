// Trace clipping: restrict a trace to a time window or to a recorded
// phase, with synchronization-protocol repair at the boundaries.
//
// The paper profiles "the parallel phase of Radiosity" rather than whole
// executions. CLA supports this by letting applications drop
// PhaseBegin/PhaseEnd markers (cla::trace::EventType::PhaseBegin/End) and
// by clipping traces to a window before analysis. A clip reads a
// TraceView — a Trace, or a `.clat` file mapped in place — and writes a
// new Trace:
//   - events outside [begin, end] are dropped;
//   - each surviving thread gets a ThreadStart/ThreadExit at the window
//     edges, and a thread wholly outside the window whose tid lies below
//     a surviving one keeps its slot as a Start/Exit pair at the window's
//     start (so a clip of a trace that validates validates too);
//   - mutex/barrier/cond protocols cut by the window are repaired with
//     the thread's ThreadProtocol (cla/trace/protocol.hpp): the left edge
//     re-opens the state the prefix left, a synthetic uncontended
//     Acquire/Acquired per held recursive depth and a re-issued Acquire
//     per pending request; the right edge releases every held depth; and
//     dangling barrier/cond halves are dropped.
#pragma once

#include <cstdint>
#include <optional>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"

namespace cla::trace {

/// A [begin, end] window in trace timestamps.
struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = ~static_cast<std::uint64_t>(0);
};

/// Returns the viewed trace restricted to `window`, protocol-repaired.
/// A thread that overlaps the window appears with synthetic start/exit
/// events at the clipped edges; one that does not is an idle Start/Exit
/// pair at window.begin if a higher tid survives, and absent otherwise.
/// Object and thread names are preserved.
Trace clip_trace(const TraceView& trace, Window window);

/// Finds the k-th phase recorded with PhaseBegin/PhaseEnd markers
/// (matched in timestamp order across all threads). Returns std::nullopt
/// if there is no such phase.
std::optional<Window> find_phase(const TraceView& trace,
                                 std::size_t phase_index);

/// Convenience: clip to the k-th recorded phase. Throws cla::util::Error
/// if the phase does not exist.
Trace clip_to_phase(const TraceView& trace, std::size_t phase_index);

}  // namespace cla::trace

// Trace clipping: restrict a trace to a time window or to a recorded
// phase, with synchronization-protocol repair at the boundaries.
//
// The paper profiles "the parallel phase of Radiosity" rather than whole
// executions. CLA supports this by letting applications drop
// PhaseBegin/PhaseEnd markers (cla::trace::EventType::PhaseBegin/End) and
// by clipping traces to a window before analysis:
//   - events outside [begin, end] are dropped;
//   - each surviving thread gets a ThreadStart/ThreadExit at the window
//     edges (so the clipped trace still validates);
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

namespace cla::trace {

/// A [begin, end] window in trace timestamps.
struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = ~static_cast<std::uint64_t>(0);
};

/// Returns the trace restricted to `window`, protocol-repaired. Threads
/// with no activity inside the window are dropped from the result only
/// if they never overlap it; otherwise they appear with synthetic
/// start/exit events. Object and thread names are preserved.
Trace clip_trace(const Trace& trace, Window window);

/// Finds the k-th phase recorded with PhaseBegin/PhaseEnd markers
/// (matched in timestamp order across all threads). Returns std::nullopt
/// if there is no such phase.
std::optional<Window> find_phase(const Trace& trace, std::size_t phase_index);

/// Convenience: clip to the k-th recorded phase. Throws cla::util::Error
/// if the phase does not exist.
Trace clip_to_phase(const Trace& trace, std::size_t phase_index);

}  // namespace cla::trace

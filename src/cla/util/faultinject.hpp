// Deterministic runtime fault injection (test harness for the
// recorder/trace-I/O failure paths).
//
// Every hostile condition the robustness layer must survive — disk full,
// interrupted syscalls, short writes, a starved flusher, sudden process
// death — can be staged on demand through CLA_FAULT_* environment knobs,
// so each failure path has a reproducible test instead of depending on a
// cooperating kernel:
//
//   CLA_FAULT_WRITE_ERRNO=ENOSPC|EINTR|EAGAIN|EIO|<number>
//       fail injected trace writes with this errno (enables injection)
//   CLA_FAULT_WRITE_AFTER_BYTES=N   start failing only after N bytes were
//                                   attempted (default 0 = immediately)
//   CLA_FAULT_WRITE_EVERY=K         fail every K-th eligible write call
//                                   (default 1 = every call)
//   CLA_FAULT_WRITE_COUNT=M         stop after M injected failures
//                                   (default 0 = persistent)
//   CLA_FAULT_SHORT_WRITE=B         cap every successful write at B bytes
//                                   (exercises short-write continuation)
//   CLA_FAULT_WRITE_KILL_AT_BYTES=N SIGKILL the process the moment the
//                                   cumulative bytes attempted by injected
//                                   writes reach N (no spill, no cleanup —
//                                   stages a death at an exact byte offset
//                                   inside an append or a compaction)
//   CLA_FAULT_FLUSHER_STALL_MS=T    stall the flusher T ms on each wake
//                                   (starves the per-thread rings)
//   CLA_FAULT_DIE_AT_EVENT=N        SIGKILL the process at the N-th
//                                   recorded event (no spill, no cleanup)
//
// The read side mirrors the write side so tailers/loaders get the same
// deterministic treatment:
//
//   CLA_FAULT_READ_ERRNO=EIO|EINTR|<number>
//       fail injected trace reads with this errno (enables injection)
//   CLA_FAULT_READ_EVERY=K          fail every K-th eligible read call
//                                   (default 1 = every call)
//   CLA_FAULT_READ_COUNT=M          stop after M injected failures
//                                   (default 0 = persistent)
//   CLA_FAULT_SHORT_READ=B          cap every successful read at B bytes
//                                   (exercises short-read continuation)
//
// The knobs are parsed once by init() (called from the Recorder and
// ChunkedTraceWriter constructors — getenv is not async-signal-safe, the
// probes below are). After init, on_write()/on_event()/flusher_stall_ms()
// only touch relaxed atomics, so they are safe on the hot path and inside
// fatal-signal handlers. With no CLA_FAULT_* variable set, enabled() is a
// single relaxed load of false and nothing else runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cla::util::fault {

/// Verdict for one write attempt.
struct WriteFault {
  bool fail = false;  ///< fail the attempt with `error` instead of writing
  int error = 0;      ///< errno to report when `fail`
  /// Cap on the bytes the attempt may consume (short-write clamp);
  /// SIZE_MAX when unconstrained.
  std::size_t max_bytes = static_cast<std::size_t>(-1);
};

/// Parses the CLA_FAULT_* environment once (subsequent calls are no-ops).
/// Not async-signal-safe; call from setup paths only.
void init() noexcept;

/// True when any fault knob is active. Async-signal-safe after init().
bool enabled() noexcept;

/// Consults the write-fault knobs for an attempt of `bytes` bytes and
/// advances the injection counters. Async-signal-safe after init().
WriteFault on_write(std::size_t bytes) noexcept;

/// Verdict for one read attempt (mirrors WriteFault).
struct ReadFault {
  bool fail = false;  ///< fail the attempt with `error` instead of reading
  int error = 0;      ///< errno to report when `fail`
  /// Cap on the bytes the attempt may return (short-read clamp);
  /// SIZE_MAX when unconstrained.
  std::size_t max_bytes = static_cast<std::size_t>(-1);
};

/// Consults the read-fault knobs for an attempt of `bytes` bytes and
/// advances the injection counters. Async-signal-safe after init().
ReadFault on_read(std::size_t bytes) noexcept;

/// Milliseconds each flusher sweep must stall (0 = no stall).
std::uint32_t flusher_stall_ms() noexcept;

/// Counts one recorded event; delivers SIGKILL to the process when the
/// CLA_FAULT_DIE_AT_EVENT threshold is reached. Async-signal-safe.
void on_event() noexcept;

/// Re-reads the environment and resets all counters (unit tests flip
/// knobs between cases with setenv/unsetenv).
void reinit_for_tests() noexcept;

}  // namespace cla::util::fault

// Lightweight timestamping for the instrumentation hot path.
//
// The paper's tool reads the POWER7 `mftb` timebase from user space; the
// x86-64 equivalent is `rdtsc` (paper footnote 2). We expose:
//   - ticks():   raw TSC ticks when available, CLOCK_MONOTONIC ns otherwise
//   - now_ns():  monotonic nanoseconds (calibrated from the TSC)
//
// All trace timestamps are stored in nanoseconds so traces from different
// machines (or from the virtual-time simulator) are comparable. The
// recorder's hot path stores raw ticks() and whoever drains its buffers
// converts them with ticks_to_ns(), so a conversion never runs inside the
// traced application's critical sections.
#pragma once

#include <cstdint>

namespace cla::util {

/// Raw timestamp counter. On x86-64 this inlines to a single `rdtsc`;
/// elsewhere it falls back to CLOCK_MONOTONIC nanoseconds.
#if defined(__x86_64__) || defined(__i386__)
inline std::uint64_t ticks() noexcept { return __builtin_ia32_rdtsc(); }
#else
std::uint64_t ticks() noexcept;
#endif

/// Monotonic wall-clock nanoseconds since an arbitrary (per-process) epoch.
std::uint64_t now_ns() noexcept;

/// Ticks-per-nanosecond calibration factor (1.0 on the fallback path).
/// The first call performs a short calibration against CLOCK_MONOTONIC;
/// if several threads race it, the first published factor wins and every
/// caller gets that one. Lock-free, so signal handlers may call it.
double ticks_per_ns() noexcept;

/// Forces the one-time TSC calibration now (~200µs busy window). The
/// recorder's flusher thread calls this before its first drain, so the
/// busy window lands on neither process start nor an application thread.
void calibrate_clock() noexcept;

/// Converts raw ticks to nanoseconds using the calibrated factor.
/// Monotone in `t`: a later tick never converts to an earlier ns.
std::uint64_t ticks_to_ns(std::uint64_t t) noexcept;

/// Busy-spins for approximately `ns` nanoseconds (used by the pthread
/// execution backend to model compute work without sleeping off-CPU).
void spin_for_ns(std::uint64_t ns) noexcept;

}  // namespace cla::util

#include "cla/util/clock.hpp"

#include <atomic>
#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define CLA_HAVE_RDTSC 1
#else
#define CLA_HAVE_RDTSC 0
#endif

namespace cla::util {

namespace {

std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

#if CLA_HAVE_RDTSC
double calibrate_ticks_per_ns() noexcept {
  // Sample TSC against CLOCK_MONOTONIC over a short busy window. A few
  // hundred microseconds is enough for ~0.1% accuracy, which is far below
  // the noise of the measured critical sections.
  const std::uint64_t t0 = __rdtsc();
  const std::uint64_t n0 = monotonic_ns();
  std::uint64_t n1 = n0;
  while (n1 - n0 < 200'000) n1 = monotonic_ns();
  const std::uint64_t t1 = __rdtsc();
  const double dns = static_cast<double>(n1 - n0);
  const double dt = static_cast<double>(t1 - t0);
  return dns > 0 ? dt / dns : 1.0;
}

// 0 until the first calibration publishes its factor. An atomic rather
// than a function-local static: a static's init guard would block (or
// deadlock) a fatal-signal handler that interrupts the calibrating thread.
std::atomic<double> g_ticks_per_ns{0.0};
#endif

}  // namespace

#if !CLA_HAVE_RDTSC
std::uint64_t ticks() noexcept { return monotonic_ns(); }
#endif

double ticks_per_ns() noexcept {
#if CLA_HAVE_RDTSC
  double factor = g_ticks_per_ns.load(std::memory_order_acquire);
  if (factor == 0.0) {
    const double mine = calibrate_ticks_per_ns();
    // First publisher wins; a loser adopts the winner's factor (loaded
    // into `factor` by the failed exchange) so all conversions agree.
    if (g_ticks_per_ns.compare_exchange_strong(factor, mine,
                                               std::memory_order_acq_rel)) {
      factor = mine;
    }
  }
  return factor;
#else
  return 1.0;
#endif
}

void calibrate_clock() noexcept { (void)ticks_per_ns(); }

std::uint64_t ticks_to_ns(std::uint64_t t) noexcept {
  return static_cast<std::uint64_t>(static_cast<double>(t) / ticks_per_ns());
}

std::uint64_t now_ns() noexcept {
#if CLA_HAVE_RDTSC
  return ticks_to_ns(__rdtsc());
#else
  return monotonic_ns();
#endif
}

void spin_for_ns(std::uint64_t ns) noexcept {
  const std::uint64_t start = now_ns();
  while (now_ns() - start < ns) {
#if CLA_HAVE_RDTSC
    _mm_pause();
#endif
  }
}

}  // namespace cla::util

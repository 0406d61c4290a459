// Scripted lock workloads for the index and incremental-analysis tests.
//
// Unlike the simulated workloads, these traces carry acquisition
// call-stack ids, nested locks, a lock held for a large share of the run,
// or a thread whose clock steps back: the shapes that exercise the
// index's running totals and the path-driven TYPE 1 visit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cla/trace/builder.hpp"
#include "cla/trace/trace.hpp"

namespace cla::test_support {

struct LockSchedule {
  trace::ThreadId workers = 4;  ///< threads 1..workers; thread 0 spawns/joins
  trace::ObjectId locks = 3;    ///< mutex ids 1..locks
  std::size_t sections = 360;
  /// MutexAcquire carries a call-stack id in 1..4 (0 = no capture).
  bool stacks = false;
  /// Every third section also takes mutex kInnerLock inside itself.
  bool nested = false;
  /// When non-zero, worker 1's tenth section holds mutex 1 this long.
  std::uint64_t long_hold = 0;
};

inline constexpr trace::ObjectId kInnerLock = 99;

/// Each step runs one section on the worker whose clock is earliest, so a
/// lock's sections are granted in time order and never overlap; a worker
/// that waits for the previous holder is contended. Deterministic.
inline trace::Trace scheduled_locks(const LockSchedule& s) {
  trace::TraceBuilder b;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto draw = [&](std::uint64_t n) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % n;
  };
  b.thread(0).start(0);
  std::vector<std::uint64_t> clock(s.workers + 1, 0);
  for (trace::ThreadId tid = 1; tid <= s.workers; ++tid) {
    b.thread(0).create(tid, tid);
    b.thread(tid).start(tid, 0);
    clock[tid] = tid + 1;
  }
  std::vector<std::uint64_t> free_at(s.locks + 1, 0);
  std::uint64_t inner_free_at = 0;
  std::vector<std::size_t> done(s.workers + 1, 0);
  for (std::size_t step = 0; step < s.sections; ++step) {
    trace::ThreadId tid = 1;
    for (trace::ThreadId t = 2; t <= s.workers; ++t) {
      if (clock[t] < clock[tid]) tid = t;
    }
    const auto lock = static_cast<trace::ObjectId>(1 + draw(s.locks));
    const std::uint64_t acquire = clock[tid];
    const std::uint64_t acquired = std::max(acquire, free_at[lock]);
    std::uint64_t released = acquired + 5 + draw(40);
    if (s.long_hold != 0 && tid == 1 && done[tid] == 10) {
      released = acquired + s.long_hold;
    }
    auto script = b.thread(tid);
    if (s.nested && step % 3 == 0) {
      const std::uint64_t inner_acquire = acquired + 1;
      const std::uint64_t inner_acquired = std::max(inner_acquire, inner_free_at);
      const std::uint64_t inner_released = inner_acquired + 3 + draw(10);
      released = std::max(released, inner_released + 1);
      script.acquire(lock, acquire)
          .acquired(lock, acquired, acquired > acquire)
          .acquire(kInnerLock, inner_acquire)
          .acquired(kInnerLock, inner_acquired, inner_acquired > inner_acquire)
          .released(kInnerLock, inner_released)
          .released(lock, released);
      inner_free_at = inner_released;
    } else if (s.stacks) {
      script.lock_at(lock, 1 + (tid + lock) % 4, acquire, acquired, released);
    } else {
      script.lock(lock, acquire, acquired, released);
    }
    free_at[lock] = released;
    clock[tid] = released + 1 + draw(20);
    ++done[tid];
  }
  std::uint64_t joined = s.workers + 1;
  for (trace::ThreadId tid = 1; tid <= s.workers; ++tid) {
    b.thread(tid).exit(clock[tid]);
    const std::uint64_t end = std::max(joined, clock[tid]);
    b.thread(0).join(tid, joined, end);
    joined = end;
  }
  b.thread(0).exit(joined + 1);
  return b.finish_unchecked();
}

/// `trace` with thread `tid`'s clock stepped back by `delta` from event
/// `from` on (a regression inside its stream). Names are kept.
inline trace::Trace with_clock_step_back(const trace::Trace& trace,
                                         trace::ThreadId tid, std::size_t from,
                                         std::uint64_t delta) {
  trace::Trace out;
  for (trace::ThreadId t = 0; t < static_cast<trace::ThreadId>(trace.thread_count()); ++t) {
    const auto events = trace.thread_events(t);
    std::vector<trace::Event> copy(events.begin(), events.end());
    if (t == tid) {
      for (std::size_t i = from; i < copy.size(); ++i) copy[i].ts -= delta;
    }
    out.append_thread_events(t, copy);
  }
  for (const auto& [object, name] : trace.object_names()) {
    out.set_object_name(object, name);
  }
  for (const auto& [t, name] : trace.thread_names()) out.set_thread_name(t, name);
  return out;
}

// Hand-cut traces whose live analysis must re-resolve wake-ups before the
// cut. Each comes with the two-round cut it was written for: cut[r][tid]
// is how many of thread tid's events have arrived after round r.

/// Thread 0's second round steps its clock back to t=100 and adds a
/// section on mutex 7 ahead of thread 1's contended one (t=105): that
/// wake-up, far before thread 0's first new event, gains a releaser.
inline trace::Trace regressed_section() {
  trace::TraceBuilder b;
  b.thread(0).start(0).lock(5, 400, 400, 500).lock(6, 510, 510, 520).lock(7, 100, 100, 110).exit(120);
  b.thread(1).start(0, trace::kNoThread).lock(7, 95, 105, 115).exit(1000);
  return b.finish_unchecked();
}
inline const std::vector<std::vector<std::size_t>> kRegressedSectionCut = {
    {4, 5}, {11, 5}};

/// Thread 0's clock steps back at event 4. Its contended wake-up at t=950
/// (event 2) finds a releaser only when thread 2's section on mutex 5
/// arrives, and becomes a segment below event 5, where thread 1's hop (to
/// thread 0's release of mutex 6 at t=50) lands.
inline trace::Trace regressed_thread_landed_hop() {
  trace::TraceBuilder b;
  b.thread(0).start(0).lock(5, 900, 950, 960).lock(6, 20, 30, 50).exit(60);
  b.thread(1).start(0, trace::kNoThread).lock(6, 35, 55, 70).exit(2000);
  b.thread(2).start(0, trace::kNoThread).lock(5, 910, 920, 940).exit(945);
  return b.finish_unchecked();
}

/// Overlapping sections on mutex 6: thread 1 obtains it (t=30) while
/// thread 0 still holds it until t=100, so thread 1's hop goes forward in
/// time. Thread 0's wake-up at t=60 becomes a segment when thread 2's
/// section on mutex 5 arrives: after the boundary (t=45) but below the
/// releaser, so the hop must land in the new segment.
inline trace::Trace late_hop() {
  trace::TraceBuilder b;
  b.thread(0).start(0).acquire(6, 10).acquired(6, 10, false).lock(5, 50, 60, 70).released(6, 100).exit(110);
  b.thread(1).start(0, trace::kNoThread).lock(6, 20, 30, 40).exit(2000);
  b.thread(2).start(0, trace::kNoThread).lock(5, 45, 55, 58).exit(59);
  return b.finish_unchecked();
}
/// The two-round cut both three-thread traces are delivered in.
inline const std::vector<std::vector<std::size_t>> kThreeThreadCut = {
    {8, 5, 1}, {8, 5, 5}};

/// Two wake-ups at one instant whose hops land in each other's segments:
/// thread 0 obtains mutex 1 at t=10 from thread 1, which obtains mutex 2
/// at t=10 from thread 0; thread 2 obtains mutex 3 at t=10 from thread 1
/// (inside thread 1's segment). A walk that enters the cycle at one of
/// the two takes the other's hop, then finds its own taken (the cycle
/// guard), so where a walk enters decides which thread starts the path.
/// Thread 0 exits at `t0_exit`, thread 2 at `t2_exit`.
inline trace::Trace hop_cycle(std::uint64_t t0_exit, std::uint64_t t2_exit) {
  trace::TraceBuilder b;
  b.thread(0).start(0).acquire(2, 1).acquired(2, 1, false).acquire(1, 5).acquired(1, 10, true).released(2, 10).released(1, 12).exit(t0_exit);
  b.thread(1).start(0, trace::kNoThread).acquire(1, 1).acquired(1, 1, false).acquire(3, 1).acquired(3, 1, false).acquire(2, 5).acquired(2, 10, true).released(1, 10).released(3, 10).released(2, 11).exit(15);
  b.thread(2).start(0, trace::kNoThread).acquire(3, 5).acquired(3, 10, true).released(3, 30).exit(t2_exit);
  return b.finish_unchecked();
}
/// hop_cycle(50, 40) in two rounds: thread 2 ends the first, so its walk
/// enters the cycle at thread 1; thread 0's exit ends the second, so that
/// walk enters at thread 0 and has taken thread 0's hop when it reaches
/// the first walk's state in thread 1's segment.
inline const std::vector<std::vector<std::size_t>> kCycleEnteredAtThread0Cut = {
    {7, 11, 5}, {8, 11, 5}};
/// hop_cycle(50, 60) in two rounds: thread 0 ends the first, whose walk
/// enters the cycle at thread 0; thread 2's exit ends the second, so that
/// walk enters at thread 1, where the first walk then found thread 0's
/// hop taken above it.
inline const std::vector<std::vector<std::size_t>> kCycleEnteredAtThread1Cut = {
    {8, 11, 4}, {8, 11, 5}};

}  // namespace cla::test_support

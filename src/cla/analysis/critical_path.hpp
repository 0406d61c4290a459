// Backward critical-path construction (paper §III.A, Fig. 2).
//
// Starting from the last segment of the last-finishing thread, walk each
// thread's event stream backwards; whenever a segment begins with a wait
// that actually blocked, jump to the event that released it and continue
// there. Everything traversed is the critical path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cla/analysis/index.hpp"
#include "cla/analysis/segment_dag.hpp"
#include "cla/util/guard.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// A contiguous stretch of the critical path on one thread.
struct PathInterval {
  trace::ThreadId tid = 0;
  std::uint64_t begin_ts = 0;
  std::uint64_t end_ts = 0;

  std::uint64_t length() const noexcept { return end_ts - begin_ts; }
};

/// A hop of the path from a blocked wake-up to its releasing event.
struct PathJump {
  EventRef from;  ///< the wake-up event (later in time)
  EventRef to;    ///< the releasing event (earlier in time)
  trace::EventType kind = trace::EventType::ThreadStart;  ///< wake-up type
  trace::ObjectId object = trace::kNoObject;  ///< lock/barrier/condvar id
};

/// The critical path of one trace.
struct CriticalPath {
  std::vector<PathInterval> intervals;  ///< chronological order
  std::vector<PathJump> jumps;          ///< chronological order
  std::uint64_t start_ts = 0;
  std::uint64_t end_ts = 0;
  trace::ThreadId last_thread = 0;  ///< thread whose exit ends the path

  /// End-to-end completion time covered by the path.
  std::uint64_t length() const noexcept { return end_ts - start_ts; }

  /// Per-thread sorted, disjoint path intervals (merged; index = tid).
  /// Sized to the trace's thread count; threads off the path get {}.
  std::vector<std::vector<PathInterval>> per_thread;

  /// Total time `thread` spends on the critical path.
  std::uint64_t thread_time(trace::ThreadId tid) const;

  /// Overlap between [begin, end) on `tid` and the critical path.
  std::uint64_t overlap(trace::ThreadId tid, std::uint64_t begin,
                        std::uint64_t end) const;
};

/// Overlap of sections with one thread's path intervals (sorted by begin,
/// disjoint: CriticalPath::per_thread), for sections visited in
/// nondecreasing begin order. The list is skipped forward once instead of
/// binary-searched per section. CriticalPath::overlap is one call on a
/// cursor started just before the section, so the two agree exactly.
class OverlapCursor {
 public:
  explicit OverlapCursor(const std::vector<PathInterval>& intervals) noexcept
      : next_(intervals.data()), end_(intervals.data() + intervals.size()) {}
  OverlapCursor(const PathInterval* first, const PathInterval* last) noexcept
      : next_(first), end_(last) {}

  /// Overlap of [begin, end) with the intervals. `begin` must not be below
  /// the previous call's.
  std::uint64_t overlap(std::uint64_t begin, std::uint64_t end) noexcept {
    if (begin >= end) return 0;
    // Intervals ending at or before `begin` overlap no later section.
    while (next_ != end_ && next_->end_ts <= begin) ++next_;
    std::uint64_t total = 0;
    for (const PathInterval* it = next_; it != end_ && it->begin_ts < end;
         ++it) {
      const std::uint64_t lo = std::max(it->begin_ts, begin);
      const std::uint64_t hi = std::min(it->end_ts, end);
      if (hi > lo) total += hi - lo;
    }
    // Guard against marginal double counting from overlapping raw
    // intervals.
    return std::min(total, end - begin);
  }

 private:
  const PathInterval* next_;
  const PathInterval* end_;
};

/// The walk: reconciles the speculatively precomputed per-segment hops
/// into the critical path. The hop table and the per-thread interval
/// finalization fan out across `pool`; the merge itself is a cheap
/// O(path-segments) chain stitch. Produces output bit-identical to the
/// paper's event-by-event walk at any worker count (the determinism suite
/// pins this against a reference walk). A non-null `deadline` is polled
/// periodically; when it expires the walk aborts with a
/// cla::util::ResourceLimitError. `stats_out` (optional) receives the
/// speculation counters.
CriticalPath compute_critical_path(const SegmentDag& dag,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline = nullptr,
                                   DagWalkStats* stats_out = nullptr);

}  // namespace cla::analysis

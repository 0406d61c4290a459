// Backward critical-path construction (paper §III.A, Fig. 2).
//
// Starting from the last segment of the last-finishing thread, walk each
// thread's event stream backwards; whenever a segment begins with a wait
// that actually blocked, jump to the event that released it and continue
// there. Everything traversed is the critical path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
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

/// What a walk keeps for the next walk over the same DAG once
/// SegmentDag::extend() has grown it: per step (in chronological order)
/// the state the walk entered a segment in and where the path stood, per
/// path interval a link to its thread's previous one. The live analyzer
/// keeps one across refreshes, so each refresh walks only down to where it
/// meets the last refresh's path and reuses the path below (see
/// compute_critical_path).
class WalkRecord {
 public:
  static constexpr std::uint64_t kNever = ~static_cast<std::uint64_t>(0);

  /// Per thread, the earliest instant at which the last walk's merged
  /// intervals (CriticalPath::per_thread) cover differently from those of
  /// the `previous` path it was given; kNever where they are equal.
  const std::vector<std::uint64_t>& changed_from() const noexcept {
    return changed_from_;
  }

 private:
  friend CriticalPath compute_critical_path(const SegmentDag&, WalkRecord&,
                                            CriticalPath, std::uint64_t,
                                            util::ThreadPool*,
                                            const util::Deadline*,
                                            DagWalkStats*);
  static constexpr std::uint32_t kNone = ~static_cast<std::uint32_t>(0);

  /// A step of one walk, in walk order: the walk entering segment `local`
  /// of `tid` at `cur_time`.
  struct WalkStep {
    std::uint64_t cur_time = 0;
    std::uint64_t reach = 0;  ///< segment begin, or hop target time if later
    trace::ThreadId tid = 0;
    std::uint32_t local = 0;
    /// 1 + the walk index of the step that took this segment's hop, when
    /// the cycle guard found it taken; 0 otherwise.
    std::uint32_t guarded_by = 0;
    bool first_visit = false;  ///< the segment's hop was not yet taken
    bool emitted = false;      ///< it added a path interval
    bool jumped = false;       ///< it took the segment's hop
  };
  /// A step in chronological order. Besides the state, the fields hold for
  /// the chronological prefix of steps up to this one, which is what a
  /// later walk joining here reuses.
  struct Step {
    std::uint64_t cur_time = 0;
    /// Latest segment begin or hop target time those steps read.
    std::uint64_t reach = 0;
    trace::ThreadId tid = 0;
    std::uint32_t local = 0;
    std::uint32_t intervals = 0;  ///< path intervals they emitted
    std::uint32_t jumps = 0;      ///< hops they took
    /// Latest step (chronological index) whose hop one of them found
    /// already taken (the cycle guard); 0 when none did.
    std::uint32_t guarded_by = 0;
    bool first_visit = false;
  };
  /// Per path interval: its thread's previous interval and the latest
  /// begin among its thread's intervals up to it.
  struct Link {
    std::uint64_t max_begin = 0;
    std::uint32_t prev = kNone;
  };

  static std::uint64_t key(trace::ThreadId tid, std::uint32_t local) {
    return (static_cast<std::uint64_t>(tid) << 32) | local;
  }

  /// Folds `pending_` into `steps_`. A walk leaves its own steps pending,
  /// so a batch walk never pays for the prefix facts.
  void settle();

  std::vector<Step> steps_;
  std::vector<WalkStep> pending_;  ///< the last walk's, above steps_
  std::size_t jumps_ = 0;          ///< hops on the last walk's path
  std::vector<Link> links_;
  std::vector<std::uint32_t> last_;  ///< per thread, its last interval
  /// (tid, local) -> the chronological step that first visited the
  /// segment; built on the first walk that can splice, then kept up to
  /// date.
  std::unordered_map<std::uint64_t, std::uint32_t> first_visit_;
  bool indexed_ = false;
  /// By global segment id: 1 + the walk step that took the segment's hop,
  /// 0 if none; cleared after each walk.
  std::vector<std::uint32_t> taken_;
  std::vector<std::uint64_t> changed_from_;
};

/// The walk: stitches the segments' hops into the critical path, looking
/// up where a hop lands only when it takes that hop (a binary search of the
/// target thread's segments, SegmentDag::segment_at). The per-thread
/// interval merge fans out across `pool`. Produces output bit-identical to
/// the paper's event-by-event walk at any worker count (the oracle suite
/// pins this against a reference walk). A non-null `deadline` is polled
/// periodically; when it expires the walk aborts with a
/// cla::util::ResourceLimitError. `stats_out` (optional) receives the hop
/// counters. A batch walk: the spliced walk below with an empty record.
CriticalPath compute_critical_path(const SegmentDag& dag,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline = nullptr,
                                   DagWalkStats* stats_out = nullptr);

/// The walk over `dag`, spliced onto `previous`: the path this `record`'s
/// last walk returned (empty for a fresh record), over the same DAG since
/// grown by SegmentDag::extend(boundary), or `boundary` 0 when any thread's
/// timestamps regress. The walk runs down from the new end and stops
/// where it enters a segment in the state the last walk entered it in,
/// if every segment and hop target the last walk read from there on began
/// before `boundary` (so the DAG kept them), no hop this walk took is one
/// the last walk took from there on, and no hop the last walk found taken
/// from there on was taken above it. The path below that step is then the
/// last walk's, so `previous` supplies its intervals and jumps, and only
/// the per-thread lists from the first interval the two walks differ in
/// are re-merged. Otherwise the walk runs to the start. Cost: the new
/// steps, the dropped and new intervals, and the per-thread intervals
/// from where each list changes. The result is identical to a batch walk.
/// On a throw, discard `record`.
CriticalPath compute_critical_path(const SegmentDag& dag, WalkRecord& record,
                                   CriticalPath previous,
                                   std::uint64_t boundary,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline = nullptr,
                                   DagWalkStats* stats_out = nullptr);

}  // namespace cla::analysis

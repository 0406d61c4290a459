// Reference critical-path walk for the tests: the paper's event-by-event
// backward walk (§III.A, Fig. 2), free of performance concerns.
//
// Starting from the last event of the last-finishing thread, walk each
// thread's event stream backwards; whenever a wake-up actually blocked,
// jump to the event that released it (resolve_wakeup, asked on demand)
// and continue there. The production walk (the segment-DAG merge walk,
// compute_critical_path(const SegmentDag&, ...)) must produce exactly
// this path; the determinism and segment-DAG suites compare the two.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/resolver.hpp"

namespace cla::test_support {

inline analysis::CriticalPath reference_walk(const analysis::TraceIndex& index) {
  using analysis::EventRef;
  using analysis::PathInterval;
  const trace::TraceView& t = index.view();
  analysis::CriticalPath path;
  path.last_thread = index.last_finished_thread();

  trace::ThreadId tid = path.last_thread;
  trace::EventsView events = t.thread_events(tid);
  std::uint32_t idx = static_cast<std::uint32_t>(events.size() - 1);
  std::uint64_t cur_time = events[idx].ts;
  path.end_ts = cur_time;

  // Guards termination on malformed traces whose releaser relation has a
  // cycle (impossible for a consistent happens-before order).
  std::set<EventRef> jumped_from;

  for (;;) {
    const trace::Event& e = events[idx];
    if (trace::is_wakeup(e.type)) {
      const analysis::Resolution r = analysis::resolve_wakeup(index, tid, idx);
      const EventRef here{tid, idx};
      if (r.blocked && r.releaser.valid() && !jumped_from.contains(here)) {
        jumped_from.insert(here);
        if (cur_time > e.ts) {
          path.intervals.push_back(PathInterval{tid, e.ts, cur_time});
        }
        path.jumps.push_back(
            analysis::PathJump{here, r.releaser, e.type, e.object});
        tid = r.releaser.tid;
        events = t.thread_events(tid);
        idx = r.releaser.index;
        cur_time = std::min(cur_time, events[idx].ts);
        // The releasing event itself (Released / Arrive / Signal / Create /
        // Exit) is never a wake-up, so continue scanning below it.
        if (idx == 0) {
          // Releaser is the thread's first event — can only be ThreadStart,
          // which is a wake-up; loop once more to process it.
          continue;
        }
        --idx;
        continue;
      }
      // A blocked wake-up already jumped from (cycle guard) falls through
      // and keeps walking backwards.
    }
    if (idx == 0) {
      // Reached the thread's ThreadStart with no (further) releaser:
      // the beginning of the execution.
      if (cur_time > e.ts) {
        path.intervals.push_back(PathInterval{tid, events[0].ts, cur_time});
      }
      path.start_ts = events[0].ts;
      break;
    }
    --idx;
  }

  // Chronological order, plus the per-thread merged interval lists.
  std::reverse(path.intervals.begin(), path.intervals.end());
  std::reverse(path.jumps.begin(), path.jumps.end());
  path.per_thread.resize(t.thread_count());
  for (const auto& iv : path.intervals) path.per_thread[iv.tid].push_back(iv);
  for (auto& ivs : path.per_thread) {
    std::sort(ivs.begin(), ivs.end(),
              [](const PathInterval& a, const PathInterval& b) {
                return a.begin_ts < b.begin_ts;
              });
    std::vector<PathInterval> merged;
    for (const auto& iv : ivs) {
      if (!merged.empty() && iv.begin_ts <= merged.back().end_ts) {
        merged.back().end_ts = std::max(merged.back().end_ts, iv.end_ts);
      } else {
        merged.push_back(iv);
      }
    }
    ivs = std::move(merged);
  }
  return path;
}

}  // namespace cla::test_support

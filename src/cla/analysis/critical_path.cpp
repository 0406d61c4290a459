#include "cla/analysis/critical_path.hpp"

#include <algorithm>

#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

std::uint64_t CriticalPath::thread_time(trace::ThreadId tid) const {
  if (tid >= per_thread.size()) return 0;
  std::uint64_t total = 0;
  for (const auto& iv : per_thread[tid]) total += iv.length();
  return total;
}

std::uint64_t CriticalPath::overlap(trace::ThreadId tid, std::uint64_t begin,
                                    std::uint64_t end) const {
  if (tid >= per_thread.size()) return 0;
  const auto& ivs = per_thread[tid];
  // First interval that might overlap: the one before the first whose
  // begin_ts >= begin.
  auto it = std::lower_bound(
      ivs.begin(), ivs.end(), begin,
      [](const PathInterval& iv, std::uint64_t ts) { return iv.begin_ts < ts; });
  if (it != ivs.begin()) --it;
  const PathInterval* first = ivs.data() + (it - ivs.begin());
  return OverlapCursor(first, ivs.data() + ivs.size()).overlap(begin, end);
}

namespace {

/// Tail of the walk: reverse the emission order into chronological order
/// and build the per-thread merged interval lists.
/// Each thread's list depends only on that thread's intervals, so the
/// merge fans out across `pool` (slot tid written only by task tid).
void finalize_path(CriticalPath& path, std::size_t thread_count,
                   util::ThreadPool* pool) {
  std::reverse(path.intervals.begin(), path.intervals.end());
  std::reverse(path.jumps.begin(), path.jumps.end());

  path.per_thread.resize(thread_count);
  for (const auto& iv : path.intervals) path.per_thread[iv.tid].push_back(iv);
  const auto merge_thread = [&](std::size_t tid) {
    auto& ivs = path.per_thread[tid];
    std::sort(ivs.begin(), ivs.end(),
              [](const PathInterval& a, const PathInterval& b) {
                return a.begin_ts < b.begin_ts;
              });
    // Merge touching/overlapping intervals.
    std::vector<PathInterval> merged;
    for (const auto& iv : ivs) {
      if (!merged.empty() && iv.begin_ts <= merged.back().end_ts) {
        merged.back().end_ts = std::max(merged.back().end_ts, iv.end_ts);
      } else {
        merged.push_back(iv);
      }
    }
    ivs = std::move(merged);
  };
  util::for_each_index(pool, thread_count, merge_thread);
}

}  // namespace

CriticalPath compute_critical_path(const SegmentDag& dag,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline,
                                   DagWalkStats* stats_out) {
  const trace::TraceView& t = dag.view();
  CriticalPath path;
  path.last_thread = dag.last_finished_thread();

  trace::ThreadId tid = path.last_thread;
  {
    const trace::EventsView& events = t.thread_events(tid);
    path.end_ts = events.ts_at(events.size() - 1);
  }
  std::uint64_t cur_time = path.end_ts;
  std::uint32_t local = dag.segment_at(
      tid, static_cast<std::uint32_t>(t.thread_events(tid).size() - 1));

  // Merge walk: stitch the speculative hop chain into the path. visited
  // is the event-level walk's cycle guard (paper Fig. 2 never jumps from
  // the same wake-up twice) — segment begins and blocking wake-ups are in
  // bijection, so guarding per segment guards exactly the same event set.
  std::vector<std::uint8_t> visited(dag.segment_count(), 0);
  DagWalkStats stats;
  stats.segments = dag.segment_count();
  for (;;) {
    if (deadline != nullptr && (++stats.merge_steps & 0xffff) == 0) {
      deadline->check("critical-path walk");
    }
    const Segment& s = dag.thread_segments(tid)[local];
    const std::size_t g = dag.global_id(tid, local);
    if (s.has_jump() && visited[g] == 0) {
      visited[g] = 1;
      ++stats.jumps_taken;
      if (cur_time > s.begin_ts) {
        path.intervals.push_back(PathInterval{tid, s.begin_ts, cur_time});
      }
      path.jumps.push_back(
          PathJump{EventRef{tid, s.begin_idx}, s.jump_to, s.kind, s.object});
      cur_time = std::min(cur_time, s.jump_ts);
      tid = s.jump_to.tid;
      local = s.jump_seg;
      continue;
    }
    if (s.begin_idx == 0) {
      // The start of the walk's final thread: either its begin never
      // blocked or the cycle guard already consumed its hop.
      if (cur_time > s.begin_ts) {
        path.intervals.push_back(PathInterval{tid, s.begin_ts, cur_time});
      }
      path.start_ts = s.begin_ts;
      break;
    }
    // Cycle guard: this segment's hop was already consumed; the event-level
    // walk keeps scanning backwards, which lands in the previous segment
    // on the same thread (every segment with begin_idx > 0 has a hop, so
    // local 0 always takes the terminal branch above).
    --local;
  }

  stats.speculation_misses = dag.hop_count() - stats.jumps_taken;

  finalize_path(path, t.thread_count(), pool);
  if (stats_out != nullptr) *stats_out = stats;
  return path;
}

}  // namespace cla::analysis

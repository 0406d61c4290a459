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

/// The earliest instant at which two sorted, disjoint, non-touching
/// interval lists cover differently; WalkRecord::kNever if they are equal.
std::uint64_t first_difference(const PathInterval* a, const PathInterval* a_end,
                               const PathInterval* b,
                               const PathInterval* b_end) {
  for (; a != a_end && b != b_end; ++a, ++b) {
    if (a->begin_ts != b->begin_ts) return std::min(a->begin_ts, b->begin_ts);
    if (a->end_ts != b->end_ts) return std::min(a->end_ts, b->end_ts);
  }
  if (a != a_end) return a->begin_ts;
  if (b != b_end) return b->begin_ts;
  return WalkRecord::kNever;
}

}  // namespace

void WalkRecord::settle() {
  Step prefix = steps_.empty() ? Step{} : steps_.back();
  const std::size_t base = steps_.size();
  const std::size_t m = pending_.size();
  steps_.reserve(base + m);
  for (std::size_t w = m; w-- > 0;) {
    const WalkStep& f = pending_[w];
    prefix.cur_time = f.cur_time;
    prefix.reach = std::max(prefix.reach, f.reach);
    prefix.tid = f.tid;
    prefix.local = f.local;
    prefix.intervals += f.emitted ? 1 : 0;
    prefix.jumps += f.jumped ? 1 : 0;
    if (f.guarded_by != 0) {
      // The step that took the hop came f.guarded_by - 1 steps into the
      // walk, which puts it this far up the chronological order.
      prefix.guarded_by = std::max(
          prefix.guarded_by, static_cast<std::uint32_t>(base + m - f.guarded_by));
    }
    prefix.first_visit = f.first_visit;
    steps_.push_back(prefix);
  }
  pending_.clear();
}

CriticalPath compute_critical_path(const SegmentDag& dag,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline,
                                   DagWalkStats* stats_out) {
  WalkRecord record;
  return compute_critical_path(dag, record, CriticalPath{}, 0, pool, deadline,
                               stats_out);
}

CriticalPath compute_critical_path(const SegmentDag& dag, WalkRecord& record,
                                   CriticalPath previous,
                                   std::uint64_t boundary,
                                   util::ThreadPool* pool,
                                   const util::Deadline* deadline,
                                   DagWalkStats* stats_out) {
  using Step = WalkRecord::Step;
  using WalkStep = WalkRecord::WalkStep;
  constexpr std::uint32_t kNone = WalkRecord::kNone;
  const trace::TraceView& t = dag.view();
  const std::size_t thread_count = t.thread_count();
  CLA_CHECK(previous.intervals.size() == record.links_.size() &&
                previous.jumps.size() == record.jumps_,
            "the previous path is not the walk record's");

  const bool can_splice = boundary > 0 && !previous.intervals.empty();
  if (can_splice) {
    record.settle();
    if (!record.indexed_) {
      for (std::uint32_t i = 0; i < record.steps_.size(); ++i) {
        const Step& s = record.steps_[i];
        if (s.first_visit) {
          record.first_visit_[WalkRecord::key(s.tid, s.local)] = i;
        }
      }
      record.indexed_ = true;
    }
  }

  trace::ThreadId tid = dag.last_finished_thread();
  const trace::EventsView& last_events = t.thread_events(tid);
  const std::uint64_t end_ts = last_events.ts_at(last_events.size() - 1);
  std::uint64_t cur_time = end_ts;
  std::uint32_t local = dag.segment_at(
      tid, static_cast<std::uint32_t>(last_events.size() - 1));

  // Walk down from the end, in emission order (latest first). taken_ is
  // the event-level walk's cycle guard (paper Fig. 2 never jumps from the
  // same wake-up twice) — segment begins and blocking wake-ups are in
  // bijection, so guarding per segment guards exactly the same event set.
  record.taken_.resize(dag.segment_count(), 0);
  std::vector<WalkStep> fresh;
  std::vector<PathInterval> intervals;
  std::vector<PathJump> jumps;
  std::uint64_t start_ts = 0;
  std::uint32_t join = kNone;   // the recorded step this walk joins at
  std::uint32_t clash = kNone;  // earliest recorded step that took a hop
                                // this walk took
  for (std::uint64_t polls = 0;; ++polls) {
    if (deadline != nullptr && (polls & 0xffff) == 0xffff) {
      deadline->check("critical-path walk");
    }
    const Segment& s = dag.thread_segments(tid)[local];
    const std::size_t g = dag.global_id(tid, local);
    WalkStep step;
    step.cur_time = cur_time;
    step.reach = s.begin_ts;
    step.tid = tid;
    step.local = local;
    step.guarded_by = record.taken_[g];
    step.first_visit = step.guarded_by == 0;
    std::uint32_t recorded = kNone;
    if (can_splice && step.first_visit) {
      const auto it = record.first_visit_.find(WalkRecord::key(tid, local));
      if (it != record.first_visit_.end()) {
        // The last walk entered this segment first at step i. Below i it
        // read only what the DAG kept if its reach is below the boundary;
        // its cycle guard behaves the same here if no hop it took from i
        // down was taken by this walk, and none it found taken from i
        // down was taken above i.
        const std::uint32_t i = it->second;
        const Step& old = record.steps_[i];
        if (old.cur_time == cur_time && old.reach < boundary &&
            old.guarded_by <= i && (clash == kNone || clash > i)) {
          join = i;
          break;
        }
        recorded = i;
      }
    }
    if (s.has_jump() && step.first_visit) {
      if (recorded != kNone) clash = std::min(clash, recorded);
      record.taken_[g] = static_cast<std::uint32_t>(fresh.size() + 1);
      if (cur_time > s.begin_ts) {
        intervals.push_back(PathInterval{tid, s.begin_ts, cur_time});
        step.emitted = true;
      }
      jumps.push_back(
          PathJump{EventRef{tid, s.begin_idx}, s.jump_to, s.kind, s.object});
      step.jumped = true;
      // The event-level walk continues below the releaser (at it, when it
      // is the target's first event), so the hop lands in the segment
      // holding that event.
      const std::uint32_t j = s.jump_to.index;
      tid = s.jump_to.tid;
      const std::uint64_t landing = t.thread_events(tid).ts_at(j);
      step.reach = std::max(step.reach, landing);
      fresh.push_back(step);
      cur_time = std::min(cur_time, landing);
      local = dag.segment_at(tid, j == 0 ? 0 : j - 1);
      continue;
    }
    if (s.begin_idx == 0) {
      // The start of the walk's final thread: either its begin never
      // blocked or the cycle guard already consumed its hop.
      if (cur_time > s.begin_ts) {
        intervals.push_back(PathInterval{tid, s.begin_ts, cur_time});
        step.emitted = true;
      }
      start_ts = s.begin_ts;
      fresh.push_back(step);
      break;
    }
    // Cycle guard: this segment's hop was already consumed; the event-level
    // walk keeps scanning backwards, which lands in the previous segment
    // on the same thread (every segment with begin_idx > 0 has a hop, so
    // local 0 always takes the terminal branch above).
    fresh.push_back(step);
    --local;
  }
  for (const WalkStep& f : fresh) {
    if (f.jumped) record.taken_[dag.global_id(f.tid, f.local)] = 0;
  }

  // The path: the recorded steps' chronological prefix up to the join,
  // then this walk's steps in chronological order.
  const std::uint32_t kept = join == kNone ? 0 : join + 1;
  const Step* joined = join == kNone ? nullptr : &record.steps_[join];
  const std::size_t kept_intervals = joined != nullptr ? joined->intervals : 0;
  CriticalPath path = std::move(previous);
  path.last_thread = dag.last_finished_thread();
  path.end_ts = end_ts;
  if (joined == nullptr) path.start_ts = start_ts;
  path.per_thread.resize(thread_count);
  record.last_.resize(thread_count, kNone);
  // Per thread, the earliest begin among the dropped and the new intervals:
  // below it the thread's merged list keeps its old intervals.
  std::vector<std::uint64_t> redo_from(thread_count, WalkRecord::kNever);
  for (std::size_t q = path.intervals.size(); q-- > kept_intervals;) {
    const PathInterval& iv = path.intervals[q];
    redo_from[iv.tid] = std::min(redo_from[iv.tid], iv.begin_ts);
    record.last_[iv.tid] = record.links_[q].prev;
  }
  path.intervals.resize(kept_intervals);
  record.links_.resize(kept_intervals);
  path.jumps.resize(joined != nullptr ? joined->jumps : 0);
  path.intervals.insert(path.intervals.end(), intervals.rbegin(),
                        intervals.rend());
  path.jumps.insert(path.jumps.end(), jumps.rbegin(), jumps.rend());
  record.jumps_ = path.jumps.size();
  record.links_.reserve(path.intervals.size());
  for (std::size_t q = kept_intervals; q < path.intervals.size(); ++q) {
    const PathInterval& iv = path.intervals[q];
    redo_from[iv.tid] = std::min(redo_from[iv.tid], iv.begin_ts);
    const std::uint32_t prev = record.last_[iv.tid];
    record.links_.push_back(WalkRecord::Link{
        prev == kNone ? iv.begin_ts
                      : std::max(record.links_[prev].max_begin, iv.begin_ts),
        prev});
    record.last_[iv.tid] = static_cast<std::uint32_t>(q);
  }

  // Re-merge each changed thread's list from its first merged interval
  // that a dropped or new interval can touch (the ones before it end
  // below every such interval's begin). The thread's intervals from that
  // interval's begin on are found through the links: max_begin stops the
  // search at the first link below which none can begin that late. Each
  // task writes only its thread's slots; a walk that rebuilt the whole
  // path fans out across `pool`, a spliced one re-merges a few intervals
  // inline.
  record.changed_from_.assign(thread_count, WalkRecord::kNever);
  std::vector<trace::ThreadId> changed;
  for (std::size_t k = 0; k < thread_count; ++k) {
    if (redo_from[k] != WalkRecord::kNever) {
      changed.push_back(static_cast<trace::ThreadId>(k));
    }
  }
  const auto remerge = [&](std::size_t k) {
    const trace::ThreadId thread = changed[k];
    std::vector<PathInterval>& merged = path.per_thread[thread];
    const std::uint64_t c = redo_from[thread];
    const auto first = std::lower_bound(
        merged.begin(), merged.end(), c,
        [](const PathInterval& iv, std::uint64_t ts) { return iv.end_ts < ts; });
    const std::uint64_t from =
        first == merged.end() ? c : std::min(first->begin_ts, c);
    std::vector<PathInterval> redo;
    for (std::uint32_t q = record.last_[thread];
         q != kNone && record.links_[q].max_begin >= from;
         q = record.links_[q].prev) {
      if (path.intervals[q].begin_ts >= from) redo.push_back(path.intervals[q]);
    }
    std::sort(redo.begin(), redo.end(),
              [](const PathInterval& a, const PathInterval& b) {
                return a.begin_ts < b.begin_ts;
              });
    // Merge touching/overlapping intervals.
    std::vector<PathInterval> tail;
    for (const PathInterval& iv : redo) {
      if (!tail.empty() && iv.begin_ts <= tail.back().end_ts) {
        tail.back().end_ts = std::max(tail.back().end_ts, iv.end_ts);
      } else {
        tail.push_back(iv);
      }
    }
    record.changed_from_[thread] = first_difference(
        merged.data() + (first - merged.begin()), merged.data() + merged.size(),
        tail.data(), tail.data() + tail.size());
    merged.erase(first, merged.end());
    merged.insert(merged.end(), tail.begin(), tail.end());
  };
  util::for_each_index(joined == nullptr ? pool : nullptr, changed.size(),
                       remerge);

  // The record: the steps up to the join stay, this walk's wait in walk
  // order until a walk that can splice settles them. The first-visit
  // index, if built, follows: the dropped steps leave it, this walk's
  // join it at the chronological position they will settle at.
  const std::size_t m = fresh.size();
  if (joined == nullptr) {
    record.first_visit_.clear();
    record.indexed_ = false;
  } else {
    for (std::size_t i = kept; i < record.steps_.size(); ++i) {
      const Step& s = record.steps_[i];
      if (!s.first_visit) continue;
      const auto it = record.first_visit_.find(WalkRecord::key(s.tid, s.local));
      if (it != record.first_visit_.end() && it->second == i) {
        record.first_visit_.erase(it);
      }
    }
    for (std::size_t w = 0; w < m; ++w) {
      if (!fresh[w].first_visit) continue;
      record.first_visit_[WalkRecord::key(fresh[w].tid, fresh[w].local)] =
          static_cast<std::uint32_t>(kept + (m - 1 - w));
    }
  }
  record.steps_.resize(kept);
  record.pending_ = std::move(fresh);

  if (stats_out != nullptr) {
    DagWalkStats stats;
    stats.segments = dag.segment_count();
    stats.jumps_taken = path.jumps.size();
    stats.speculation_misses = dag.hop_count() - stats.jumps_taken;
    stats.merge_steps = m;
    stats.reused_steps = kept;
    *stats_out = stats;
  }
  return path;
}

}  // namespace cla::analysis

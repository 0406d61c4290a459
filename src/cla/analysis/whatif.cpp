#include "cla/analysis/whatif.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "cla/util/error.hpp"

namespace cla::analysis {

namespace {

/// Merged [begin, end) hold intervals of one thread, plus a prefix-sum of
/// hold time so overlap queries over a checkpoint step are O(log n).
struct HoldTimeline {
  std::vector<std::uint64_t> begins;
  std::vector<std::uint64_t> ends;
  std::vector<std::uint64_t> prefix;  ///< hold ns strictly before begins[i]

  /// Total hold time inside [a, b).
  std::uint64_t overlap(std::uint64_t a, std::uint64_t b) const {
    if (b <= a || begins.empty()) return 0;
    return covered_before(b) - covered_before(a);
  }

 private:
  /// Hold ns in [begins.front(), t).
  std::uint64_t covered_before(std::uint64_t t) const {
    const auto it = std::upper_bound(begins.begin(), begins.end(), t);
    const auto i = static_cast<std::size_t>(it - begins.begin());
    if (i == 0) return 0;
    const std::uint64_t into =
        std::min(t, ends[i - 1]) > begins[i - 1]
            ? std::min(t, ends[i - 1]) - begins[i - 1]
            : 0;
    return prefix[i - 1] + into;
  }
};

/// The wake-up structure of one checkpoint: where the thread started
/// waiting and which remote event released it.
struct WakeupDep {
  std::uint32_t wait_begin_idx = 0;
  EventRef releaser;
};

}  // namespace

WhatIfEstimate estimate_shrink(const AnalysisResult& result,
                               const std::string& lock_name,
                               double shrink_factor) {
  CLA_CHECK(shrink_factor >= 0.0 && shrink_factor <= 1.0,
            "shrink factor must be in [0,1]");
  WhatIfEstimate est;
  est.lock = lock_name;
  est.shrink_factor = shrink_factor;
  const LockStats* ls = result.find_lock(lock_name);
  if (ls == nullptr || result.completion_time == 0) return est;
  est.saved_ns = static_cast<std::uint64_t>(
      static_cast<double>(ls->cp_hold_time) * shrink_factor);
  est.saved_ns = std::min(est.saved_ns, result.completion_time - 1);
  est.predicted_speedup = static_cast<double>(result.completion_time) /
                          static_cast<double>(result.completion_time - est.saved_ns);
  return est;
}

std::vector<WhatIfEstimate> rank_optimization_targets(const AnalysisResult& result) {
  std::vector<WhatIfEstimate> estimates;
  estimates.reserve(result.locks.size());
  for (const LockStats& ls : result.locks) {
    estimates.push_back(estimate_shrink(result, ls.name, 1.0));
  }
  std::sort(estimates.begin(), estimates.end(),
            [](const WhatIfEstimate& a, const WhatIfEstimate& b) {
              if (a.saved_ns != b.saved_ns) return a.saved_ns > b.saved_ns;
              return a.lock < b.lock;
            });
  return estimates;
}

WhatIfReplay replay_shrink(const SegmentDag& dag, const TraceIndex& index,
                           const std::string& lock_name,
                           double shrink_factor) {
  CLA_CHECK(shrink_factor >= 0.0 && shrink_factor <= 1.0,
            "shrink factor must be in [0,1]");
  const trace::TraceView& view = dag.view();
  const auto thread_count = static_cast<trace::ThreadId>(view.thread_count());
  WhatIfReplay out;
  out.lock = lock_name;
  out.shrink_factor = shrink_factor;

  std::uint64_t min_start = ~static_cast<std::uint64_t>(0);
  std::uint64_t max_exit = 0;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const trace::EventsView& events = view.thread_events(tid);
    min_start = std::min(min_start, events.ts_at(0));
    max_exit = std::max(max_exit, events.ts_at(events.size() - 1));
  }
  out.original_span_ns = max_exit - min_start;
  out.predicted_span_ns = out.original_span_ns;

  trace::ObjectId lock_id = trace::kNoObject;
  bool found = false;
  for (const auto& [id, mi] : index.mutexes()) {
    (void)mi;
    if (view.object_display_name(id, "mutex") == lock_name) {
      lock_id = id;
      found = true;
      break;
    }
  }
  if (!found || out.original_span_ns == 0) return out;

  // --- the lock's hold intervals, merged per owning thread ---
  std::vector<HoldTimeline> holds(thread_count);
  {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> raw(
        thread_count);
    for (const OwnedSection& owned : index.mutexes().at(lock_id).order) {
      const SectionRef section = owned.section;
      const SectionRow& cs = index.row(section);
      if (cs.released_ts > cs.acquired_ts) {
        raw[section.tid].emplace_back(cs.acquired_ts, cs.released_ts);
      }
    }
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      auto& iv = raw[tid];
      std::sort(iv.begin(), iv.end());
      HoldTimeline& h = holds[tid];
      for (const auto& [b, e] : iv) {
        if (!h.begins.empty() && b <= h.ends.back()) {
          h.ends.back() = std::max(h.ends.back(), e);
        } else {
          h.begins.push_back(b);
          h.ends.push_back(e);
        }
      }
      h.prefix.resize(h.begins.size());
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < h.begins.size(); ++i) {
        h.prefix[i] = sum;
        sum += h.ends[i] - h.begins[i];
      }
    }
  }

  // --- checkpoints: thread ends, segment begins, wait begins, releasers ---
  std::vector<std::map<std::uint32_t, WakeupDep>> deps(thread_count);
  std::vector<std::vector<std::uint32_t>> points(thread_count);
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const trace::EventsView& events = view.thread_events(tid);
    points[tid].push_back(0);
    points[tid].push_back(static_cast<std::uint32_t>(events.size() - 1));
  }
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    for (const Segment& s : dag.thread_segments(tid)) {
      points[tid].push_back(s.begin_idx);
      if (!s.has_jump()) continue;
      WakeupDep dep;
      dep.releaser = s.jump_to;
      dep.wait_begin_idx = s.begin_idx;
      switch (s.kind) {
        case trace::EventType::MutexAcquired: {
          const std::uint32_t row = index.row_of(tid, s.begin_idx);
          if (row != TraceIndex::npos32) {
            dep.wait_begin_idx = index.thread_sections(tid)[row].acquire_idx;
          }
          break;
        }
        case trace::EventType::BarrierLeave: {
          const std::uint32_t row = index.barrier_wait_of(tid, s.begin_idx);
          if (row != TraceIndex::npos32) {
            dep.wait_begin_idx = index.thread_barrier_waits(tid)[row].arrive_idx;
          }
          break;
        }
        case trace::EventType::CondWaitEnd: {
          const std::uint32_t row = index.cond_wait_of(tid, s.begin_idx);
          if (row != TraceIndex::npos32) {
            dep.wait_begin_idx = index.thread_cond_waits(tid)[row].begin_idx;
          }
          break;
        }
        case trace::EventType::JoinEnd: {
          // Match the resolver: the wait starts at the nearest preceding
          // JoinBegin on the same target thread.
          const trace::EventsView& events = view.thread_events(tid);
          const trace::ObjectId target = events.object_at(s.begin_idx);
          for (std::uint32_t j = s.begin_idx; j-- > 0;) {
            if (events.type_at(j) == trace::EventType::JoinBegin &&
                events.object_at(j) == target) {
              dep.wait_begin_idx = j;
              break;
            }
          }
          break;
        }
        default:  // thread-start: creation gates the first event itself
          break;
      }
      points[tid].push_back(dep.wait_begin_idx);
      points[dep.releaser.tid].push_back(dep.releaser.index);
      deps[tid].emplace(s.begin_idx, dep);
    }
  }
  for (auto& p : points) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }

  // --- replay in original (ts, tid, idx) order: every dependency's new
  // --- time is final before its dependents need it ---
  struct Point {
    std::uint64_t ts;
    trace::ThreadId tid;
    std::uint32_t idx;
  };
  std::vector<Point> order;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const trace::EventsView& events = view.thread_events(tid);
    for (std::uint32_t idx : points[tid]) {
      order.push_back(Point{events.ts_at(idx), tid, idx});
    }
  }
  std::sort(order.begin(), order.end(), [](const Point& a, const Point& b) {
    return std::tie(a.ts, a.tid, a.idx) < std::tie(b.ts, b.tid, b.idx);
  });

  std::vector<std::map<std::uint32_t, std::uint64_t>> new_ts(thread_count);
  std::vector<std::uint64_t> prev_new(thread_count, 0);
  std::vector<std::uint64_t> prev_ts(thread_count, 0);
  std::vector<char> has_prev(thread_count, 0);
  const auto shrunk_advance = [&](trace::ThreadId tid, std::uint64_t a,
                                  std::uint64_t b) {
    const std::uint64_t elapsed = b - a;
    const auto saved = static_cast<std::uint64_t>(
        static_cast<double>(holds[tid].overlap(a, b)) * shrink_factor);
    return elapsed - std::min(saved, elapsed);
  };
  for (const Point& p : order) {
    std::uint64_t nt;
    const auto dep_it = deps[p.tid].find(p.idx);
    if (!has_prev[p.tid]) {
      nt = p.ts - min_start;  // keep the thread's original offset
      if (dep_it != deps[p.tid].end()) {
        const WakeupDep& dep = dep_it->second;
        const auto& remote = new_ts[dep.releaser.tid];
        const auto rit = remote.find(dep.releaser.index);
        if (rit != remote.end()) {
          const std::uint64_t rts =
              view.thread_events(dep.releaser.tid).ts_at(dep.releaser.index);
          // Wake-up latency keeps its original length (rts > ts only in
          // malformed traces whose releaser was exit-closed late).
          nt = rit->second + (p.ts > rts ? p.ts - rts : 0);
        }
      }
    } else if (dep_it != deps[p.tid].end()) {
      const WakeupDep& dep = dep_it->second;
      // Own arrival at the wait point...
      std::uint64_t arrival;
      const auto wit = new_ts[p.tid].find(dep.wait_begin_idx);
      if (dep.wait_begin_idx != p.idx && wit != new_ts[p.tid].end()) {
        arrival = wit->second;
      } else {
        arrival = prev_new[p.tid] + shrunk_advance(p.tid, prev_ts[p.tid], p.ts);
      }
      nt = arrival;
      // ...held back by the releaser plus the original wake-up latency.
      const auto& remote = new_ts[dep.releaser.tid];
      const auto rit = remote.find(dep.releaser.index);
      if (rit != remote.end()) {
        const std::uint64_t rts =
            view.thread_events(dep.releaser.tid).ts_at(dep.releaser.index);
        nt = std::max(nt, rit->second + (p.ts > rts ? p.ts - rts : 0));
      }
    } else {
      nt = prev_new[p.tid] + shrunk_advance(p.tid, prev_ts[p.tid], p.ts);
    }
    new_ts[p.tid][p.idx] = nt;
    prev_new[p.tid] = nt;
    prev_ts[p.tid] = p.ts;
    has_prev[p.tid] = 1;
    ++out.checkpoints;
  }

  std::uint64_t new_first = ~static_cast<std::uint64_t>(0);
  std::uint64_t new_last = 0;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const trace::EventsView& events = view.thread_events(tid);
    new_first = std::min(new_first, new_ts[tid].at(0));
    new_last = std::max(
        new_last,
        new_ts[tid].at(static_cast<std::uint32_t>(events.size() - 1)));
  }
  out.predicted_span_ns = std::max<std::uint64_t>(new_last - new_first, 1);
  out.predicted_speedup = static_cast<double>(out.original_span_ns) /
                          static_cast<double>(out.predicted_span_ns);
  return out;
}

}  // namespace cla::analysis

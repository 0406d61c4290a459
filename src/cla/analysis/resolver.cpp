#include "cla/analysis/resolver.hpp"

#include <algorithm>

#include "cla/util/error.hpp"

namespace cla::analysis {

namespace {

using trace::EventType;

/// Latest signal/broadcast of `ci` with ts in (begin, end], preferring a
/// different thread than `waiter`; falls back to the latest signal <= end.
EventRef match_cond_signal(const CondIndex& ci, const CondWaitRecord& wait) {
  EventRef best{};
  // signals are sorted by ts; walk the range (begin_ts, end_ts] backwards.
  auto upper = std::upper_bound(
      ci.signals.begin(), ci.signals.end(), wait.end_ts,
      [](std::uint64_t ts, const CondSignalRecord& s) { return ts < s.ts; });
  for (auto it = upper; it != ci.signals.begin();) {
    --it;
    if (it->ts <= wait.begin_ts) break;
    if (it->tid == wait.tid) continue;  // a thread cannot signal itself awake
    best = EventRef{it->tid, it->idx};
    break;
  }
  if (!best.valid()) {
    // Timestamp skew fallback: latest foreign signal at or before wake-up.
    for (auto it = upper; it != ci.signals.begin();) {
      --it;
      if (it->tid == wait.tid) continue;
      best = EventRef{it->tid, it->idx};
      break;
    }
  }
  return best;
}

}  // namespace

Resolution resolve_wakeup(const TraceIndex& index, trace::ThreadId tid,
                          std::uint32_t idx) {
  const trace::TraceView& t = index.view();
  CLA_ASSERT(tid < t.thread_count(), "resolve_wakeup thread out of range");
  const trace::EventsView& events = t.thread_events(tid);
  CLA_ASSERT(idx < events.size(), "resolve_wakeup index out of range");

  Resolution r;
  switch (events.type_at(idx)) {
    case EventType::ThreadStart: {
      if (tid == 0) break;  // initial thread: nothing released it
      const EventRef create = index.create_event(tid);
      if (create.valid()) {
        r.releaser = create;
        r.blocked = true;  // a thread can never run before creation
      }
      break;
    }
    case EventType::JoinEnd: {
      const trace::ObjectId object = events.object_at(idx);
      const auto target = static_cast<trace::ThreadId>(object);
      if (target >= index.threads().size()) break;
      const ThreadInfo& ti = index.threads()[target];
      // Find the matching JoinBegin (the previous event on this thread
      // with the same target); blocked iff the target outlived it.
      std::uint64_t begin_ts = events.ts_at(idx);
      for (std::uint32_t j = idx; j-- > 0;) {
        if (events.type_at(j) == EventType::JoinBegin &&
            events.object_at(j) == object) {
          begin_ts = events.ts_at(j);
          break;
        }
      }
      if (ti.exit_ts > begin_ts) {
        r.releaser = EventRef{target, ti.exit_idx};
        r.blocked = true;
      }
      break;
    }
    case EventType::MutexAcquired: {
      const std::uint64_t arg = events.arg_at(idx);
      const bool contended = (arg != trace::kNoArg) && (arg & 1);
      if (!contended) break;
      r.blocked = true;
      const std::uint32_t row = index.row_of(tid, idx);
      if (row == TraceIndex::npos32) break;
      const auto prev = index.previous_owner(SectionRef{tid, row});
      if (!prev) break;
      r.releaser = EventRef{prev->tid, index.row(*prev).released_idx};
      break;
    }
    case EventType::BarrierLeave: {
      auto bit = index.barriers().find(events.object_at(idx));
      if (bit == index.barriers().end()) break;
      const auto wpos = index.barrier_wait_of(tid, idx);
      if (wpos == TraceIndex::npos32) break;
      const BarrierIndex& bi = bit->second;
      const BarrierWaitRecord& w = bi.waits[wpos];
      CLA_ASSERT(w.episode < bi.episodes.size(), "barrier episode out of range");
      const BarrierEpisode& ep = bi.episodes[w.episode];
      if (ep.waits.empty()) break;
      const BarrierWaitRecord& last = bi.waits[ep.last_arriver];
      if (last.tid == tid && ep.last_arriver == wpos) {
        // The last arriver never blocked; the path stays on its thread.
        break;
      }
      r.blocked = true;
      r.releaser = EventRef{last.tid, last.arrive_idx};
      break;
    }
    case EventType::CondWaitEnd: {
      auto cit = index.conds().find(events.object_at(idx));
      if (cit == index.conds().end()) break;
      const auto wpos = index.cond_wait_of(tid, idx);
      if (wpos == TraceIndex::npos32) break;
      const CondWaitRecord& wait = cit->second.waits[wpos];
      if (wait.end_ts == wait.begin_ts) break;  // did not block
      const EventRef signal = match_cond_signal(cit->second, wait);
      if (signal.valid()) {
        r.blocked = true;
        r.releaser = signal;
      }
      break;
    }
    default:
      break;
  }
  return r;
}

}  // namespace cla::analysis

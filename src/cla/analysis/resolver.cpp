#include "cla/analysis/resolver.hpp"

#include <algorithm>

#include "cla/util/error.hpp"

namespace cla::analysis {

namespace {

using trace::EventType;

/// Latest signal/broadcast in `signals` (a condvar's, in time order) at or
/// before the end of `waiter`'s `wait`, from a different thread than
/// `waiter` (a thread cannot signal itself awake). That is the latest
/// foreign signal in the wait's window (begin, end] when there is one, and
/// otherwise, under timestamp skew, the latest foreign one before it.
EventRef match_cond_signal(const std::vector<CondSignalRecord>& signals,
                           trace::ThreadId waiter, const CondWaitRecord& wait) {
  auto it = std::upper_bound(
      signals.begin(), signals.end(), wait.end_ts,
      [](std::uint64_t ts, const CondSignalRecord& s) { return ts < s.ts; });
  while (it != signals.begin()) {
    --it;
    if (it->tid != waiter) return EventRef{it->tid, it->idx};
  }
  return EventRef{};
}

}  // namespace

Resolution resolve_wakeup(const TraceIndex& index, trace::ThreadId tid,
                          std::uint32_t idx, std::uint32_t& row_cursor) {
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
      const SectionTable& rows = index.thread_sections(tid);
      std::uint32_t& row = row_cursor;
      while (row < rows.size() && rows[row].acquired_idx < idx) ++row;
      if (row == rows.size() || rows[row].acquired_idx != idx) break;
      const auto prev = index.previous_owner(SectionRef{tid, row});
      if (!prev) break;
      r.releaser = EventRef{prev->tid, index.row(*prev).released_idx};
      break;
    }
    case EventType::BarrierLeave: {
      const std::uint32_t row = index.barrier_wait_of(tid, idx);
      if (row == TraceIndex::npos32) break;
      const BarrierWaitRecord& wait = index.thread_barrier_waits(tid)[row];
      const BarrierEpisode& last = index.barriers()
                                       .at(events.object_at(idx))
                                       .episodes.at(wait.generation);
      // The last arriver never blocked; the path stays on its thread.
      if (last.tid == tid && last.row == row) break;
      r.blocked = true;
      r.releaser = EventRef{
          last.tid, index.thread_barrier_waits(last.tid)[last.row].arrive_idx};
      break;
    }
    case EventType::CondWaitEnd: {
      const std::uint32_t row = index.cond_wait_of(tid, idx);
      if (row == TraceIndex::npos32) break;
      const CondWaitRecord& wait = index.thread_cond_waits(tid)[row];
      if (wait.end_ts == wait.begin_ts) break;  // did not block
      const EventRef signal = match_cond_signal(
          index.conds().at(events.object_at(idx)).signals, tid, wait);
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

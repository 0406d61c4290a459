#include "cla/trace/clip.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "cla/util/error.hpp"

namespace cla::trace {

namespace {

/// Per-(thread, mutex) protocol state while repairing one thread's stream.
enum class HoldState { Idle, Acquiring, Held };

}  // namespace

Trace clip_trace(const Trace& t, Window window) {
  CLA_CHECK(window.begin <= window.end, "clip window is inverted");
  Trace out;
  out.tables() = t.tables();

  for (ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const auto events = t.thread_events(tid);
    if (events.empty()) continue;
    const std::uint64_t thread_begin = events.front().ts;
    const std::uint64_t thread_end = events.back().ts;
    // A thread entirely outside the window disappears from the clip.
    if (thread_end < window.begin || thread_begin > window.end) continue;

    const std::uint64_t clip_begin = std::max(thread_begin, window.begin);
    const std::uint64_t clip_end = std::min(thread_end, window.end);

    std::vector<Event> clipped;
    clipped.push_back(Event{clip_begin, kNoObject, kNoArg,
                            EventType::ThreadStart, 0, tid});

    // Locks held when the window opens need synthetic acquisition events;
    // find them by replaying the prefix.
    std::map<ObjectId, HoldState> state;
    for (const Event& e : events) {
      if (e.ts >= window.begin) break;
      switch (e.type) {
        case EventType::MutexAcquire:
          state[e.object] = HoldState::Acquiring;
          break;
        case EventType::MutexAcquired:
          state[e.object] = HoldState::Held;
          break;
        case EventType::MutexReleased:
          state[e.object] = HoldState::Idle;
          break;
        default:
          break;
      }
    }
    for (const auto& [object, hold] : state) {
      if (hold == HoldState::Held) {
        clipped.push_back(Event{clip_begin, object, kNoArg,
                                EventType::MutexAcquire, 0, tid});
        clipped.push_back(Event{clip_begin, object, 0,
                                EventType::MutexAcquired, 0, tid});
      }
      // An Acquire pending at the edge resumes below when its Acquired
      // event falls inside the window; re-issue the request at the edge.
      if (hold == HoldState::Acquiring) {
        clipped.push_back(Event{clip_begin, object, kNoArg,
                                EventType::MutexAcquire, 0, tid});
      }
    }

    // Body: copy in-window events, tracking state for right-edge repair.
    // Dangling halves (a BarrierArrive whose Leave is outside, a
    // CondWaitBegin whose End is outside) are dropped at the end.
    std::map<ObjectId, HoldState> live = state;
    std::vector<std::size_t> pending_barrier_arrive;  // indices in `clipped`
    std::vector<std::size_t> pending_cond_begin;
    for (const Event& e : events) {
      if (e.ts < window.begin || e.ts > window.end) continue;
      switch (e.type) {
        case EventType::ThreadStart:
        case EventType::ThreadExit:
          continue;  // re-synthesized at the clip edges
        case EventType::MutexAcquire:
          live[e.object] = HoldState::Acquiring;
          break;
        case EventType::MutexAcquired:
          // Repair: an Acquired whose Acquire fell before the window got
          // its synthetic request at the edge already (Acquiring state).
          live[e.object] = HoldState::Held;
          break;
        case EventType::MutexReleased:
          if (live.count(e.object) == 0 || live[e.object] != HoldState::Held) {
            // Release of a lock acquired before the window that we did
            // not see as held (e.g. acquired before any prefix event):
            // synthesize the acquisition at the window edge.
            clipped.push_back(Event{clip_begin, e.object, kNoArg,
                                    EventType::MutexAcquire, 0, tid});
            clipped.push_back(Event{clip_begin, e.object, 0,
                                    EventType::MutexAcquired, 0, tid});
          }
          live[e.object] = HoldState::Idle;
          break;
        case EventType::BarrierArrive:
          pending_barrier_arrive.push_back(clipped.size());
          break;
        case EventType::BarrierLeave:
          if (!pending_barrier_arrive.empty()) pending_barrier_arrive.pop_back();
          // A Leave with no in-window Arrive is dropped (half a wait says
          // nothing useful once its blocking part is outside the window).
          else continue;
          break;
        case EventType::CondWaitBegin:
          pending_cond_begin.push_back(clipped.size());
          break;
        case EventType::CondWaitEnd:
          if (!pending_cond_begin.empty()) pending_cond_begin.pop_back();
          else continue;
          break;
        default:
          break;
      }
      clipped.push_back(e);
    }

    // Right edge: drop dangling barrier arrivals / cond-wait begins
    // (mark-and-sweep from the back to keep indices valid).
    std::vector<std::size_t> to_drop = pending_barrier_arrive;
    to_drop.insert(to_drop.end(), pending_cond_begin.begin(),
                   pending_cond_begin.end());
    std::sort(to_drop.begin(), to_drop.end(), std::greater<>());
    for (const std::size_t index : to_drop) {
      clipped.erase(clipped.begin() + static_cast<std::ptrdiff_t>(index));
    }
    // Locks still held at the right edge get a synthetic release.
    for (const auto& [object, hold] : live) {
      if (hold == HoldState::Held) {
        clipped.push_back(Event{clip_end, object, kNoArg,
                                EventType::MutexReleased, 0, tid});
      }
    }
    clipped.push_back(
        Event{clip_end, kNoObject, kNoArg, EventType::ThreadExit, 0, tid});

    std::stable_sort(clipped.begin(), clipped.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
    out.add_thread_stream(tid, std::move(clipped));
  }
  return out;
}

std::optional<Window> find_phase(const Trace& t, std::size_t phase_index) {
  // Collect all markers across threads, in timestamp order.
  std::vector<std::pair<std::uint64_t, bool>> markers;  // (ts, is_begin)
  for (ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const Event& e : t.thread_events(tid)) {
      if (e.type == EventType::PhaseBegin) markers.emplace_back(e.ts, true);
      else if (e.type == EventType::PhaseEnd) markers.emplace_back(e.ts, false);
    }
  }
  std::sort(markers.begin(), markers.end());
  std::size_t seen = 0;
  std::optional<std::uint64_t> open;
  for (const auto& [ts, is_begin] : markers) {
    if (is_begin) {
      open = ts;
    } else if (open.has_value()) {
      if (seen == phase_index) return Window{*open, ts};
      ++seen;
      open.reset();
    }
  }
  return std::nullopt;
}

Trace clip_to_phase(const Trace& t, std::size_t phase_index) {
  const auto window = find_phase(t, phase_index);
  CLA_CHECK(window.has_value(),
            "trace has no recorded phase " + std::to_string(phase_index));
  return clip_trace(t, *window);
}

}  // namespace cla::trace

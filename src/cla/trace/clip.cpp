#include "cla/trace/clip.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "cla/trace/protocol.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {

Trace clip_trace(const TraceView& t, Window window) {
  CLA_CHECK(window.begin <= window.end, "clip window is inverted");
  Trace out;
  out.tables() = t.tables();

  for (ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const EventsView& events = t.thread_events(tid);
    if (events.empty()) continue;
    const std::uint64_t thread_begin = events.front().ts;
    const std::uint64_t thread_end = events.back().ts;
    // A thread entirely outside the window has no events in the clip.
    if (thread_end < window.begin || thread_begin > window.end) continue;

    const std::uint64_t clip_begin = std::max(thread_begin, window.begin);
    const std::uint64_t clip_end = std::min(thread_end, window.end);

    util::GrowArray<Event>& clipped = out.thread_stream(tid);
    const auto at_begin = [&](EventType type, ObjectId object,
                              std::uint64_t arg) {
      clipped.push_back(Event{clip_begin, object, arg, type, 0, tid});
    };
    at_begin(EventType::ThreadStart, kNoObject, kNoArg);

    // Left edge: replay the prefix, then re-open at the edge every section
    // it left held (each recursive depth) and every pending request.
    ThreadProtocol protocol;
    std::uint32_t body = 0;
    for (; body < events.size() && events[body].ts < window.begin; ++body) {
      protocol.step(body, events[body]);
    }
    for (const auto& [object, lock] : protocol.locks()) {
      for (std::size_t depth = 0; depth < lock.held.size(); ++depth) {
        at_begin(EventType::MutexAcquire, object, kNoArg);
        at_begin(EventType::MutexAcquired, object, 0);
      }
      if (lock.request) at_begin(EventType::MutexAcquire, object, kNoArg);
    }

    // Body: copy the in-window events. Half a barrier or condvar wait says
    // nothing useful once its blocking part is outside the window: a
    // Leave/End that closes no in-window Arrive/Begin is dropped here, and
    // an Arrive/Begin still open at the right edge is dropped below.
    std::map<std::uint32_t, std::size_t> wait_openings;  // idx -> position
    for (std::uint32_t i = body; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.ts < window.begin || e.ts > window.end) continue;
      if (e.type == EventType::ThreadStart || e.type == EventType::ThreadExit) {
        continue;  // re-synthesized at the clip edges
      }
      const Step step = protocol.step(i, e);
      if (step.what == Transition::Arrived ||
          step.what == Transition::WaitBegun) {
        wait_openings[i] = clipped.size();
      } else if (e.type == EventType::BarrierLeave ||
                 e.type == EventType::CondWaitEnd) {
        const bool closes_in_window =
            step.what == Transition::Left
                ? wait_openings.erase(step.barrier.arrive.idx) > 0
                : step.what == Transition::WaitEnded &&
                      wait_openings.erase(step.wait.begin.idx) > 0;
        if (!closes_in_window) continue;
      }
      clipped.push_back(e);
    }

    // Right edge: drop the open halves (their positions ascend), then
    // release every held depth.
    std::size_t keep = 0;
    auto open_half = wait_openings.begin();
    for (std::size_t k = 0; k < clipped.size(); ++k) {
      if (open_half != wait_openings.end() && open_half->second == k) {
        ++open_half;
        continue;
      }
      clipped[keep++] = clipped[k];
    }
    clipped.resize(keep);
    for (const auto& [object, lock] : protocol.locks()) {
      for (std::size_t depth = 0; depth < lock.held.size(); ++depth) {
        clipped.push_back(Event{clip_end, object, kNoArg,
                                EventType::MutexReleased, 0, tid});
      }
    }
    clipped.push_back(
        Event{clip_end, kNoObject, kNoArg, EventType::ThreadExit, 0, tid});

    std::stable_sort(clipped.begin(), clipped.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
  }

  // Stream positions are tids, so a thread outside the window below one
  // inside it keeps its slot, as an idle Start/Exit pair.
  for (ThreadId tid = 0; tid < out.thread_count(); ++tid) {
    util::GrowArray<Event>& stream = out.thread_stream(tid);
    if (!stream.empty()) continue;
    for (const EventType type :
         {EventType::ThreadStart, EventType::ThreadExit}) {
      stream.push_back(Event{window.begin, kNoObject, kNoArg, type, 0, tid});
    }
  }
  return out;
}

std::optional<Window> find_phase(const TraceView& t, std::size_t phase_index) {
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

Trace clip_to_phase(const TraceView& t, std::size_t phase_index) {
  const auto window = find_phase(t, phase_index);
  CLA_CHECK(window.has_value(),
            "trace has no recorded phase " + std::to_string(phase_index));
  return clip_trace(t, *window);
}

}  // namespace cla::trace

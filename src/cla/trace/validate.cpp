#include "cla/trace/validate.hpp"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cla::trace {

namespace {

using util::DiagCode;
using util::Diagnostic;
using util::DiagnosticSink;
using util::Severity;
using util::Strictness;

/// Ids beyond this are treated as corruption, not real thread references
/// (matches the salvage reader's plausibility caps).
constexpr std::uint64_t kMaxPlausibleTid = 1u << 20;

/// Per-(thread, mutex) protocol state. Recursive mutexes are allowed:
/// depth counts nested Acquired/Released pairs.
struct MutexState {
  int depth = 0;
  bool acquiring = false;
};

/// True for the event types whose `object` field names another thread.
bool references_thread(EventType type) noexcept {
  return type == EventType::ThreadCreate || type == EventType::JoinBegin ||
         type == EventType::JoinEnd;
}

std::string event_context(const Event& e) {
  std::string out(to_string(e.type));
  if (e.object != kNoObject) {
    out += " object ";
    out += std::to_string(e.object);
  }
  return out;
}

/// The replay core, storage-generic: `TraceLike` is Trace (span streams)
/// or TraceView (strided column streams) — same checks, same diagnostics.
template <typename TraceLike>
bool validate_trace_impl(const TraceLike& trace, DiagnosticSink& sink) {
  const std::uint64_t errors_before = sink.error_count();
  if (trace.thread_count() == 0 || trace.event_count() == 0) {
    sink.report(Severity::Fatal, DiagCode::CLA_E_NO_THREADS, Diagnostic::kNoTid,
                Diagnostic::kNoEvent, "trace has no threads or no events");
    return false;
  }

  const std::size_t thread_count = trace.thread_count();
  for (ThreadId tid = 0; tid < thread_count; ++tid) {
    const auto stream = trace.thread_events(tid);
    auto report = [&](Severity severity, DiagCode code, std::uint64_t event,
                      std::string message) {
      sink.report(severity, code, tid, event, std::move(message));
    };
    if (stream.empty()) {
      report(Severity::Error, DiagCode::CLA_E_EMPTY_THREAD, Diagnostic::kNoEvent,
             "thread has no events");
      continue;
    }
    if (stream.front().type != EventType::ThreadStart) {
      report(Severity::Error, DiagCode::CLA_E_NO_THREAD_START, 0,
             "first event is " + std::string(to_string(stream.front().type)) +
                 ", not ThreadStart");
    }
    if (stream.back().type != EventType::ThreadExit) {
      report(Severity::Error, DiagCode::CLA_E_DANGLING_THREAD, stream.size() - 1,
             "last event is " + std::string(to_string(stream.back().type)) +
                 ", not ThreadExit");
    }

    std::map<ObjectId, MutexState> mutexes;
    std::map<ObjectId, bool> barrier_inside;  // true between Arrive and Leave
    std::optional<ObjectId> open_wait;        // condvar of an open CondWaitBegin
    std::uint64_t max_ts = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Event& e = stream[i];
      if (e.tid != tid) {
        report(Severity::Error, DiagCode::CLA_E_TID_MISMATCH, i,
               "event carries tid " + std::to_string(e.tid) +
                   " inside thread " + std::to_string(tid) + "'s stream");
      }
      if (e.ts < max_ts) {
        report(Severity::Error, DiagCode::CLA_E_TS_REGRESSION, i,
               "timestamp " + std::to_string(e.ts) + " goes backwards (" +
                   event_context(e) + ")");
      } else {
        max_ts = e.ts;
      }
      if (references_thread(e.type) && e.object >= thread_count) {
        report(Severity::Warning, DiagCode::CLA_W_UNKNOWN_THREAD_REF, i,
               event_context(e) + " references no known thread");
      }
      // State transitions mirror the repair engine's keep/drop replay: a
      // violating event leaves the state unchanged (as if dropped), so one
      // stray event yields one diagnostic instead of a cascade — and a
      // repaired trace replays cleanly.
      switch (e.type) {
        case EventType::ThreadStart:
          if (i != 0) {
            report(Severity::Error, DiagCode::CLA_E_STRAY_THREAD_START, i,
                   "ThreadStart not at the head of the stream");
          }
          break;
        case EventType::ThreadExit:
          if (i + 1 != stream.size()) {
            report(Severity::Error, DiagCode::CLA_E_STRAY_THREAD_EXIT, i,
                   "ThreadExit before the end of the stream");
          }
          break;
        case EventType::MutexAcquire: {
          auto& st = mutexes[e.object];
          if (st.acquiring) {
            report(Severity::Error, DiagCode::CLA_E_DOUBLE_ACQUIRE, i,
                   "MutexAcquire while already acquiring mutex " +
                       std::to_string(e.object));
          } else {
            st.acquiring = true;
          }
          break;
        }
        case EventType::MutexAcquired: {
          auto& st = mutexes[e.object];
          if (!st.acquiring) {
            report(Severity::Error, DiagCode::CLA_E_UNPAIRED_ACQUIRED, i,
                   "MutexAcquired without MutexAcquire on mutex " +
                       std::to_string(e.object));
          } else {
            st.acquiring = false;
            ++st.depth;
          }
          break;
        }
        case EventType::MutexReleased: {
          auto& st = mutexes[e.object];
          if (st.depth <= 0) {
            report(Severity::Error, DiagCode::CLA_E_UNPAIRED_UNLOCK, i,
                   "MutexReleased without holding mutex " +
                       std::to_string(e.object));
          } else {
            --st.depth;
          }
          break;
        }
        case EventType::BarrierArrive: {
          auto& inside = barrier_inside[e.object];
          if (inside) {
            report(Severity::Error, DiagCode::CLA_E_BARRIER_REENTER, i,
                   "BarrierArrive while inside barrier " +
                       std::to_string(e.object));
          } else {
            inside = true;
          }
          break;
        }
        case EventType::BarrierLeave: {
          auto& inside = barrier_inside[e.object];
          if (!inside) {
            report(Severity::Error, DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE, i,
                   "BarrierLeave without BarrierArrive on barrier " +
                       std::to_string(e.object));
          } else {
            inside = false;
          }
          break;
        }
        case EventType::CondWaitBegin:
          if (open_wait.has_value()) {
            report(Severity::Warning, DiagCode::CLA_W_NESTED_COND_WAIT, i,
                   "CondWaitBegin while a wait on condvar " +
                       std::to_string(*open_wait) + " is still open");
          } else {
            open_wait = e.object;
          }
          break;
        case EventType::CondWaitEnd:
          if (!open_wait.has_value()) {
            report(Severity::Warning, DiagCode::CLA_W_UNPAIRED_WAIT_END, i,
                   "CondWaitEnd without a matching CondWaitBegin on condvar " +
                       std::to_string(e.object));
          } else {
            open_wait.reset();
          }
          break;
        default:
          break;
      }
    }

    // Dangling protocol state at the end of the thread. The historic
    // validator tolerated these (it only checked transitions), so they are
    // warnings: strict mode stays compatible, repair mode closes them.
    const std::uint64_t end_idx = stream.size() - 1;
    for (const auto& [object, st] : mutexes) {
      if (st.acquiring) {
        report(Severity::Warning, DiagCode::CLA_W_ACQUIRE_PENDING_AT_EXIT,
               end_idx,
               "thread ended while still acquiring mutex " +
                   std::to_string(object));
      }
      if (st.depth > 0) {
        report(Severity::Warning, DiagCode::CLA_W_LOCK_HELD_AT_EXIT, end_idx,
               "thread ended still holding mutex " + std::to_string(object));
      }
    }
    for (const auto& [object, inside] : barrier_inside) {
      if (inside) {
        report(Severity::Warning, DiagCode::CLA_W_OPEN_BARRIER_AT_EXIT, end_idx,
               "thread ended inside barrier " + std::to_string(object));
      }
    }
    if (open_wait.has_value()) {
      report(Severity::Warning, DiagCode::CLA_W_OPEN_WAIT_AT_EXIT, end_idx,
             "thread ended inside a wait on condvar " +
                 std::to_string(*open_wait));
    }
  }
  return sink.error_count() == errors_before;
}

}  // namespace

bool validate_trace(const Trace& trace, DiagnosticSink& sink) {
  return validate_trace_impl(trace, sink);
}

bool validate_trace(const TraceView& view, DiagnosticSink& sink) {
  return validate_trace_impl(view, sink);
}

RepairSummary repair_trace_semantics(Trace& trace, Strictness mode,
                                     DiagnosticSink* sink) {
  RepairSummary summary;
  auto note = [&](DiagCode code, Severity severity, ThreadId tid,
                  std::string message) {
    if (sink != nullptr) {
      sink->report(severity, code, tid, Diagnostic::kNoEvent,
                   std::move(message));
    }
  };

  // Threads referenced by surviving Create/Join events whose own streams
  // were lost entirely (e.g. every chunk torn away) get stubbed so the
  // references stay resolvable. Implausibly large ids are corruption, not
  // references, and are left to the resolver's bounds checks.
  std::size_t needed_threads = trace.thread_count();
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    for (const Event& e : trace.thread_events(tid)) {
      if (references_thread(e.type) && e.object < kMaxPlausibleTid &&
          e.object + 1 > needed_threads) {
        needed_threads = static_cast<std::size_t>(e.object) + 1;
      }
    }
  }
  if (needed_threads > trace.thread_count()) {
    trace.reserve_thread_events(static_cast<ThreadId>(needed_threads - 1), 0);
  }

  Trace repaired;
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto span = trace.thread_events(tid);
    std::vector<Event> events(span.begin(), span.end());
    std::uint64_t synthesized = 0;
    std::uint64_t discarded = 0;
    std::uint64_t clamped = 0;
    bool touched = false;

    if (events.empty()) {
      // Every event of this thread was lost; keep the slot resolvable
      // (other threads' ThreadCreate/Join events may reference it).
      events.push_back(Event{0, kNoObject, kNoArg, EventType::ThreadStart, 0, tid});
      events.push_back(Event{0, kNoObject, kNoArg, EventType::ThreadExit, 0, tid});
      synthesized += 2;
      ++summary.threads_stubbed;
      note(DiagCode::CLA_R_STUBBED_THREAD, Severity::Info, tid,
           "thread stream lost; stubbed with a Start/Exit pair");
    }

    // Clamp per-thread timestamps monotone (raw clock regressions are
    // normally repaired by the clean-exit flush, which a crash skipped).
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].ts < events[i - 1].ts) {
        events[i].ts = events[i - 1].ts;
        touched = true;
        ++clamped;
      }
    }

    if (events.front().type != EventType::ThreadStart) {
      events.insert(events.begin(), Event{events.front().ts, kNoObject, kNoArg,
                                          EventType::ThreadStart, 0, tid});
      ++synthesized;
    }

    // Replay the protocol, dropping events a partial recording can no
    // longer support and tracking what is left dangling at the end.
    std::map<ObjectId, MutexState> mutexes;
    std::map<ObjectId, std::uint64_t> inside_barrier;  // object -> episode arg
    std::optional<ObjectId> open_wait;
    std::vector<Event> kept;
    kept.reserve(events.size() + 4);
    std::uint64_t original_kept = 0;
    std::optional<Event> final_exit;
    for (std::size_t i = 0; i < events.size(); ++i) {
      Event e = events[i];
      e.tid = tid;  // a corrupt tid inside an intact chunk body is repaired
      bool keep = true;
      switch (e.type) {
        case EventType::ThreadStart:
          keep = i == 0;
          break;
        case EventType::ThreadExit:
          // Re-appended once, at the very end.
          keep = false;
          if (i + 1 == events.size()) final_exit = e;
          break;
        case EventType::MutexAcquire: {
          auto& st = mutexes[e.object];
          keep = !st.acquiring;
          if (keep) st.acquiring = true;
          break;
        }
        case EventType::MutexAcquired: {
          auto& st = mutexes[e.object];
          keep = st.acquiring;
          if (keep) {
            st.acquiring = false;
            ++st.depth;
          }
          break;
        }
        case EventType::MutexReleased: {
          auto& st = mutexes[e.object];
          keep = st.depth > 0;
          if (keep) --st.depth;
          break;
        }
        case EventType::BarrierArrive:
          keep = !inside_barrier.contains(e.object);
          if (keep) inside_barrier[e.object] = e.arg;
          break;
        case EventType::BarrierLeave:
          keep = inside_barrier.contains(e.object);
          if (keep) inside_barrier.erase(e.object);
          break;
        case EventType::CondWaitBegin:
          keep = !open_wait.has_value();
          if (keep) open_wait = e.object;
          break;
        case EventType::CondWaitEnd:
          keep = open_wait.has_value();
          if (keep) open_wait.reset();
          break;
        default:
          break;
      }
      if (keep) {
        kept.push_back(e);
        ++original_kept;
      } else if (e.type != EventType::ThreadExit) {
        ++discarded;
        touched = true;
      }
    }

    const std::uint64_t last_ts = kept.empty() ? 0 : kept.back().ts;

    // Close dangling protocol state at the last-seen timestamp: an open
    // condition wait ends, a pending acquire collapses to a zero-length
    // uncontended section, a held lock is released, an open barrier
    // episode is left.
    if (open_wait.has_value()) {
      kept.push_back(Event{last_ts, *open_wait, kNoArg, EventType::CondWaitEnd,
                           0, tid});
      ++synthesized;
    }
    for (auto& [object, st] : mutexes) {
      if (st.acquiring) {
        kept.push_back(Event{last_ts, object, 0, EventType::MutexAcquired, 0, tid});
        kept.push_back(Event{last_ts, object, kNoArg, EventType::MutexReleased, 0, tid});
        synthesized += 2;
      }
      for (; st.depth > 0; --st.depth) {
        kept.push_back(Event{last_ts, object, kNoArg, EventType::MutexReleased, 0, tid});
        ++synthesized;
      }
    }
    for (const auto& [object, episode] : inside_barrier) {
      kept.push_back(Event{last_ts, object, episode, EventType::BarrierLeave, 0, tid});
      ++synthesized;
    }
    if (final_exit.has_value() && final_exit->ts >= last_ts) {
      kept.push_back(*final_exit);
      ++original_kept;
    } else {
      kept.push_back(Event{last_ts, kNoObject, kNoArg, EventType::ThreadExit, 0, tid});
      if (!final_exit.has_value()) ++synthesized;
    }

    // Lenient mode: a thread that lost more events than it kept carries
    // almost no signal; keep the tid resolvable but drop its content so
    // the rest of the trace analyzes unpolluted.
    if (mode == Strictness::Lenient && discarded > original_kept) {
      const std::uint64_t t0 = kept.front().ts;
      discarded += original_kept;
      synthesized = 2;
      clamped = 0;
      kept.clear();
      kept.push_back(Event{t0, kNoObject, kNoArg, EventType::ThreadStart, 0, tid});
      kept.push_back(Event{t0, kNoObject, kNoArg, EventType::ThreadExit, 0, tid});
      touched = true;
      ++summary.threads_dropped;
      note(DiagCode::CLA_R_DROPPED_THREAD, Severity::Warning, tid,
           "thread dropped: " + std::to_string(discarded) +
               " of its events were unsupportable");
    }

    if (sink != nullptr) {
      if (clamped > 0) {
        note(DiagCode::CLA_R_CLAMPED_TIMESTAMPS, Severity::Info, tid,
             "clamped " + std::to_string(clamped) +
                 " non-monotone timestamps");
      }
      if (discarded > 0) {
        note(DiagCode::CLA_R_DROPPED_EVENTS, Severity::Info, tid,
             "dropped " + std::to_string(discarded) +
                 " protocol-inconsistent events");
      }
      if (synthesized > 0) {
        note(DiagCode::CLA_R_SYNTHESIZED_EVENTS, Severity::Info, tid,
             "synthesized " + std::to_string(synthesized) +
                 " events to close the thread's protocol state");
      }
    }

    if (synthesized > 0 || touched) ++summary.threads_repaired;
    summary.synthesized_events += synthesized;
    summary.events_discarded += discarded;
    summary.timestamps_clamped += clamped;
    repaired.add_thread_stream(tid, std::move(kept));
  }

  repaired.tables() = std::move(trace.tables());
  trace = std::move(repaired);
  return summary;
}

}  // namespace cla::trace

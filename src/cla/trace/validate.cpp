#include "cla/trace/validate.hpp"

#include <optional>
#include <string>
#include <utility>

#include "cla/trace/protocol.hpp"

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

/// Text of a protocol violation, worded as the historic validator did.
std::string violation_message(DiagCode code, const Event& e,
                              const ThreadProtocol& protocol) {
  const std::string id = std::to_string(e.object);
  switch (code) {
    case DiagCode::CLA_E_DOUBLE_ACQUIRE:
      return "MutexAcquire while already acquiring mutex " + id;
    case DiagCode::CLA_E_UNPAIRED_ACQUIRED:
      return "MutexAcquired without MutexAcquire on mutex " + id;
    case DiagCode::CLA_E_UNPAIRED_UNLOCK:
      return "MutexReleased without holding mutex " + id;
    case DiagCode::CLA_E_BARRIER_REENTER:
      return "BarrierArrive while inside barrier " + id;
    case DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE:
      return "BarrierLeave without BarrierArrive on barrier " + id;
    case DiagCode::CLA_W_NESTED_COND_WAIT:  // the open wait stays open
      return "CondWaitBegin while a wait on condvar " +
             std::to_string(protocol.wait()->cond) + " is still open";
    default:
      return "CondWaitEnd without a matching CondWaitBegin on condvar " + id;
  }
}

}  // namespace

bool validate_trace(const TraceView& trace, DiagnosticSink& sink) {
  const std::uint64_t errors_before = sink.error_count();
  if (trace.thread_count() == 0 || trace.event_count() == 0) {
    sink.report(Severity::Fatal, DiagCode::CLA_E_NO_THREADS, Diagnostic::kNoTid,
                Diagnostic::kNoEvent, "trace has no threads or no events");
    return false;
  }

  const std::size_t thread_count = trace.thread_count();
  for (ThreadId tid = 0; tid < thread_count; ++tid) {
    const EventsView& stream = trace.thread_events(tid);
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

    ThreadProtocol protocol;
    std::uint64_t max_ts = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Event& e = stream[i];
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
      if (e.type == EventType::ThreadStart && i != 0) {
        report(Severity::Error, DiagCode::CLA_E_STRAY_THREAD_START, i,
               "ThreadStart not at the head of the stream");
      }
      if (e.type == EventType::ThreadExit && i + 1 != stream.size()) {
        report(Severity::Error, DiagCode::CLA_E_STRAY_THREAD_EXIT, i,
               "ThreadExit before the end of the stream");
      }
      // A violating event leaves the protocol state unchanged (as repair
      // drops it), so one stray event yields one diagnostic instead of a
      // cascade — and a repaired trace replays cleanly.
      const Step step = protocol.step(static_cast<std::uint32_t>(i), e);
      if (step.what == Transition::Violation) {
        // Errors are exactly what the historic Trace::validate() threw on;
        // it tolerated the condvar rules, so they stay warnings.
        const bool condvar = e.type == EventType::CondWaitBegin ||
                             e.type == EventType::CondWaitEnd;
        report(condvar ? Severity::Warning : Severity::Error, step.violation, i,
               violation_message(step.violation, e, protocol));
      }
    }

    // Dangling protocol state at the end of the thread. The historic
    // validator tolerated these (it only checked transitions), so they are
    // warnings: strict mode stays compatible, repair mode closes them.
    const std::uint64_t end_idx = stream.size() - 1;
    for (const auto& [object, lock] : protocol.locks()) {
      if (lock.request) {
        report(Severity::Warning, DiagCode::CLA_W_ACQUIRE_PENDING_AT_EXIT,
               end_idx,
               "thread ended while still acquiring mutex " +
                   std::to_string(object));
      }
      if (!lock.held.empty()) {
        report(Severity::Warning, DiagCode::CLA_W_LOCK_HELD_AT_EXIT, end_idx,
               "thread ended still holding mutex " + std::to_string(object));
      }
    }
    for (const auto& [object, barrier] : protocol.barriers()) {
      if (barrier.arrival) {
        report(Severity::Warning, DiagCode::CLA_W_OPEN_BARRIER_AT_EXIT, end_idx,
               "thread ended inside barrier " + std::to_string(object));
      }
    }
    if (const auto& wait = protocol.wait()) {
      report(Severity::Warning, DiagCode::CLA_W_OPEN_WAIT_AT_EXIT, end_idx,
             "thread ended inside a wait on condvar " +
                 std::to_string(wait->cond));
    }
  }
  return sink.error_count() == errors_before;
}

RepairResult repair_trace_semantics(const TraceView& view, Strictness mode,
                                    DiagnosticSink* sink) {
  RepairResult out;
  RepairSummary& summary = out.summary;
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
  std::size_t thread_count = view.thread_count();
  for (ThreadId tid = 0; tid < view.thread_count(); ++tid) {
    for (const Event& e : view.thread_events(tid)) {
      if (references_thread(e.type) && e.object < kMaxPlausibleTid &&
          e.object + 1 > thread_count) {
        thread_count = static_cast<std::size_t>(e.object) + 1;
      }
    }
  }

  for (ThreadId tid = 0; tid < thread_count; ++tid) {
    const EventsView stream =
        tid < view.thread_count() ? view.thread_events(tid) : EventsView();
    std::uint64_t synthesized = 0;
    std::uint64_t discarded = 0;
    std::uint64_t clamped = 0;
    bool touched = false;

    // The stream as repair reads it: a lost one (other threads'
    // ThreadCreate/Join events may reference it) as a Start/Exit pair at
    // 0, one that does not begin with ThreadStart with one put in front.
    const bool lost = stream.empty();
    if (lost) {
      synthesized += 2;
      ++summary.threads_stubbed;
      note(DiagCode::CLA_R_STUBBED_THREAD, Severity::Info, tid,
           "thread stream lost; stubbed with a Start/Exit pair");
    }
    const std::size_t lead =
        !lost && stream.type_at(0) != EventType::ThreadStart ? 1 : 0;
    synthesized += lead;
    const std::size_t count = lost ? 2 : stream.size() + lead;
    const auto event_at = [&](std::size_t i) {
      if (lost || i < lead) {
        const bool exit = lost && i == 1;
        return Event{lost ? 0 : stream.ts_at(0), kNoObject, kNoArg,
                     exit ? EventType::ThreadExit : EventType::ThreadStart, 0,
                     tid};
      }
      return stream[i - lead];
    };

    // Replay the protocol, dropping events a partial recording can no
    // longer support: exactly the ones the automaton rejects. The kept
    // events go straight into the repaired trace.
    ThreadProtocol protocol;
    util::GrowArray<Event>& kept = out.trace.thread_stream(tid);
    kept.reserve(count + 4);
    std::uint64_t original_kept = 0;
    std::optional<Event> final_exit;
    std::uint64_t max_ts = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Event e = event_at(i);
      // Clamp per-thread timestamps monotone (raw clock regressions are
      // normally repaired by the clean-exit flush, which a crash skipped).
      if (e.ts < max_ts) {
        e.ts = max_ts;
        touched = true;
        ++clamped;
      }
      max_ts = e.ts;
      if (e.type == EventType::ThreadExit) {
        // Re-appended once, at the very end.
        if (i + 1 == count) final_exit = e;
        continue;
      }
      const bool keep =
          e.type == EventType::ThreadStart
              ? i == 0
              : protocol.step(static_cast<std::uint32_t>(i), e).what !=
                    Transition::Violation;
      if (keep) {
        kept.push_back(e);
        ++original_kept;
      } else {
        ++discarded;
        touched = true;
      }
    }

    const std::uint64_t last_ts = kept.empty() ? 0 : kept.back().ts;

    // Close dangling protocol state at the last-seen timestamp: an open
    // condition wait ends, a pending acquire collapses to a zero-length
    // uncontended section, a held lock is released, an open barrier
    // episode is left.
    const auto close = [&](EventType type, ObjectId object, std::uint64_t arg) {
      kept.push_back(Event{last_ts, object, arg, type, 0, tid});
      ++synthesized;
    };
    if (const auto& wait = protocol.wait()) {
      close(EventType::CondWaitEnd, wait->cond, kNoArg);
    }
    for (const auto& [object, lock] : protocol.locks()) {
      if (lock.request) {
        close(EventType::MutexAcquired, object, 0);
        close(EventType::MutexReleased, object, kNoArg);
      }
      for (std::size_t depth = 0; depth < lock.held.size(); ++depth) {
        close(EventType::MutexReleased, object, kNoArg);
      }
    }
    for (const auto& [object, barrier] : protocol.barriers()) {
      if (barrier.arrival) {
        close(EventType::BarrierLeave, object, barrier.arrival->arg);
      }
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

    if (clamped > 0) {
      note(DiagCode::CLA_R_CLAMPED_TIMESTAMPS, Severity::Info, tid,
           "clamped " + std::to_string(clamped) + " non-monotone timestamps");
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

    if (synthesized > 0 || touched) ++summary.threads_repaired;
    summary.synthesized_events += synthesized;
    summary.events_discarded += discarded;
    summary.timestamps_clamped += clamped;
  }

  out.trace.tables() = view.tables();
  return out;
}

}  // namespace cla::trace

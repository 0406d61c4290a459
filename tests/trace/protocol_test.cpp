// The per-thread protocol automaton (cla/trace/protocol.hpp): every
// (state, event) transition, recursive depth, the episode key and the
// earliest open timestamp, then the rules it settles for every reader —
// the validator, repair, the index, the bounded sweep and the incremental
// analyzer see the same sections and waits.
#include "cla/trace/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/core/cla.hpp"
#include "cla/trace/validate.hpp"

namespace cla::trace {
namespace {

using util::DiagCode;

Event ev(EventType type, ObjectId object, std::uint64_t ts,
         std::uint64_t arg = kNoArg, ThreadId tid = 0) {
  return Event{ts, object, arg, type, 0, tid};
}

/// The automaton's whole state as text, so a violation can be shown to
/// leave it unchanged.
std::string fingerprint(const ThreadProtocol& p) {
  std::string out;
  for (const auto& [object, lock] : p.locks()) {
    if (!lock.request && lock.held.empty()) continue;  // nothing open
    out += "L" + std::to_string(object) + (lock.request ? "r" : "") + "d" +
           std::to_string(lock.held.size()) + " ";
  }
  for (const auto& [object, barrier] : p.barriers()) {
    out += "B" + std::to_string(object) + (barrier.arrival ? "o" : "") + "c" +
           std::to_string(barrier.completed) + " ";
  }
  if (p.wait()) out += "W" + std::to_string(p.wait()->cond);
  return out;
}

struct TransitionCase {
  const char* name;
  std::vector<Event> prefix;  ///< brings the automaton into the state
  Event event;
  Transition want;
  DiagCode violation = DiagCode::CLA_E_NO_THREADS;  ///< if want == Violation
};

constexpr ObjectId kM = 7, kOtherM = 8, kB = 3, kOtherB = 4;
constexpr ObjectId kC = 5, kOtherC = 6;

const Event kAcquire = ev(EventType::MutexAcquire, kM, 1);
const Event kAcquired = ev(EventType::MutexAcquired, kM, 2, 0);
const Event kArrive = ev(EventType::BarrierArrive, kB, 1);
const Event kBegin = ev(EventType::CondWaitBegin, kC, 1);

const TransitionCase kCases[] = {
    // Mutex: idle, requested, held, held with a recursive re-lock pending.
    {"idle+acquire", {}, ev(EventType::MutexAcquire, kM, 5),
     Transition::Requested},
    {"idle+acquired", {}, ev(EventType::MutexAcquired, kM, 5),
     Transition::Violation, DiagCode::CLA_E_UNPAIRED_ACQUIRED},
    {"idle+released", {}, ev(EventType::MutexReleased, kM, 5),
     Transition::Violation, DiagCode::CLA_E_UNPAIRED_UNLOCK},
    {"requested+acquire", {kAcquire}, ev(EventType::MutexAcquire, kM, 5),
     Transition::Violation, DiagCode::CLA_E_DOUBLE_ACQUIRE},
    {"requested+acquired", {kAcquire}, ev(EventType::MutexAcquired, kM, 5),
     Transition::Acquired},
    {"requested+released", {kAcquire}, ev(EventType::MutexReleased, kM, 5),
     Transition::Violation, DiagCode::CLA_E_UNPAIRED_UNLOCK},
    {"held+acquire", {kAcquire, kAcquired}, ev(EventType::MutexAcquire, kM, 5),
     Transition::Requested},
    {"held+acquired", {kAcquire, kAcquired},
     ev(EventType::MutexAcquired, kM, 5), Transition::Violation,
     DiagCode::CLA_E_UNPAIRED_ACQUIRED},
    {"held+released", {kAcquire, kAcquired},
     ev(EventType::MutexReleased, kM, 5), Transition::Released},
    {"held+release-other", {kAcquire, kAcquired},
     ev(EventType::MutexReleased, kOtherM, 5), Transition::Violation,
     DiagCode::CLA_E_UNPAIRED_UNLOCK},
    {"relock+acquire", {kAcquire, kAcquired, kAcquire},
     ev(EventType::MutexAcquire, kM, 5), Transition::Violation,
     DiagCode::CLA_E_DOUBLE_ACQUIRE},
    {"relock+acquired", {kAcquire, kAcquired, kAcquire},
     ev(EventType::MutexAcquired, kM, 5), Transition::Acquired},
    {"relock+released", {kAcquire, kAcquired, kAcquire},
     ev(EventType::MutexReleased, kM, 5), Transition::Released},
    // Barrier: idle, inside.
    {"barrier idle+arrive", {}, ev(EventType::BarrierArrive, kB, 5),
     Transition::Arrived},
    {"barrier idle+leave", {}, ev(EventType::BarrierLeave, kB, 5),
     Transition::Violation, DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE},
    {"barrier inside+arrive", {kArrive}, ev(EventType::BarrierArrive, kB, 5),
     Transition::Violation, DiagCode::CLA_E_BARRIER_REENTER},
    {"barrier inside+leave", {kArrive}, ev(EventType::BarrierLeave, kB, 5),
     Transition::Left},
    {"barrier inside+leave-other", {kArrive},
     ev(EventType::BarrierLeave, kOtherB, 5), Transition::Violation,
     DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE},
    {"barrier inside+arrive-other", {kArrive},
     ev(EventType::BarrierArrive, kOtherB, 5), Transition::Arrived},
    // Condvar: idle, waiting.
    {"cond idle+begin", {}, ev(EventType::CondWaitBegin, kC, 5),
     Transition::WaitBegun},
    {"cond idle+end", {}, ev(EventType::CondWaitEnd, kC, 5),
     Transition::Violation, DiagCode::CLA_W_UNPAIRED_WAIT_END},
    {"cond waiting+begin", {kBegin}, ev(EventType::CondWaitBegin, kC, 5),
     Transition::Violation, DiagCode::CLA_W_NESTED_COND_WAIT},
    {"cond waiting+begin-other", {kBegin},
     ev(EventType::CondWaitBegin, kOtherC, 5), Transition::Violation,
     DiagCode::CLA_W_NESTED_COND_WAIT},
    {"cond waiting+end", {kBegin}, ev(EventType::CondWaitEnd, kC, 5),
     Transition::WaitEnded},
    {"cond waiting+end-other", {kBegin}, ev(EventType::CondWaitEnd, kOtherC, 5),
     Transition::Violation, DiagCode::CLA_W_UNPAIRED_WAIT_END},
    // Events outside the pairing rules.
    {"signal", {kBegin}, ev(EventType::CondSignal, kC, 5), Transition::None},
    {"create", {kAcquire}, ev(EventType::ThreadCreate, 1, 5), Transition::None},
    {"phase", {}, ev(EventType::PhaseBegin, kNoObject, 5), Transition::None},
};

TEST(TraceProtocol, EveryStateEventPair) {
  for (const TransitionCase& c : kCases) {
    ThreadProtocol p;
    std::uint32_t idx = 0;
    for (const Event& e : c.prefix) {
      ASSERT_NE(p.step(idx++, e).what, Transition::Violation) << c.name;
    }
    const std::string before = fingerprint(p);
    const Step step = p.step(idx, c.event);
    EXPECT_EQ(step.what, c.want) << c.name;
    if (c.want == Transition::Violation) {
      EXPECT_EQ(step.violation, c.violation) << c.name;
      EXPECT_EQ(fingerprint(p), before) << c.name << ": state changed";
    }
  }
}

TEST(TraceProtocol, ClosingStepsCarryTheirOpening) {
  ThreadProtocol p;
  p.step(1, ev(EventType::MutexAcquire, kM, 10, 42));
  const Step acquired = p.step(2, ev(EventType::MutexAcquired, kM, 15, 1));
  EXPECT_EQ(acquired.section.acquire.idx, 1u);
  EXPECT_EQ(acquired.section.acquire.arg, 42u);
  EXPECT_TRUE(acquired.section.contended());
  const Step released = p.step(3, ev(EventType::MutexReleased, kM, 20));
  EXPECT_EQ(released.section.acquire.ts, 10u);
  EXPECT_EQ(released.section.acquired.ts, 15u);

  p.step(4, ev(EventType::BarrierArrive, kB, 30, 9));
  const Step left = p.step(5, ev(EventType::BarrierLeave, kB, 35));
  EXPECT_EQ(left.barrier.arrive.idx, 4u);
  EXPECT_EQ(left.barrier.arrive.ts, 30u);
  EXPECT_EQ(left.barrier.episode_key(), 9u);

  p.step(6, ev(EventType::CondWaitBegin, kC, 40));
  const Step ended = p.step(7, ev(EventType::CondWaitEnd, kC, 45));
  EXPECT_EQ(ended.wait.cond, kC);
  EXPECT_EQ(ended.wait.begin.idx, 6u);
  EXPECT_EQ(ended.wait.begin.ts, 40u);
}

TEST(TraceProtocol, RecursiveDepthReleasesInnermostFirst) {
  ThreadProtocol p;
  p.step(1, ev(EventType::MutexAcquire, kM, 1));
  p.step(2, ev(EventType::MutexAcquired, kM, 2));
  p.step(3, ev(EventType::MutexAcquire, kM, 3));
  p.step(4, ev(EventType::MutexAcquired, kM, 4));
  ASSERT_EQ(p.locks().at(kM).held.size(), 2u);
  EXPECT_EQ(p.locks().at(kM).held.front().acquired.idx, 2u);  // outermost
  EXPECT_EQ(p.step(5, ev(EventType::MutexReleased, kM, 5)).section.acquired.idx,
            4u);
  EXPECT_EQ(p.step(6, ev(EventType::MutexReleased, kM, 6)).section.acquired.idx,
            2u);
  EXPECT_EQ(p.held_count(), 0u);
  EXPECT_EQ(p.step(7, ev(EventType::MutexReleased, kM, 7)).violation,
            DiagCode::CLA_E_UNPAIRED_UNLOCK);
}

TEST(TraceProtocol, EpisodeKeyFallsBackToTheOrdinal) {
  const auto key = [](std::uint64_t recorded, std::uint32_t ordinal) {
    return BarrierWait{Opening{0, 0, recorded}, ordinal}.episode_key();
  };
  EXPECT_EQ(key(5, 2), 5u);
  EXPECT_EQ(key(1u << 24, 2), 1u << 24);
  EXPECT_EQ(key((1u << 24) + 1, 2), 2u);  // absurd: corrupt input
  EXPECT_EQ(key(kNoArg, 2), 2u);

  // The ordinal counts this thread's completed waits on the barrier.
  ThreadProtocol p;
  for (std::uint32_t round = 0; round < 3; ++round) {
    EXPECT_EQ(p.step(2 * round, ev(EventType::BarrierArrive, kB, round))
                  .barrier.episode_key(),
              round);
    EXPECT_EQ(p.step(2 * round + 1, ev(EventType::BarrierLeave, kB, round))
                  .barrier.episode_key(),
              round);
  }
  EXPECT_EQ(p.barriers().at(kB).completed, 3u);
}

TEST(TraceProtocol, EarliestOpenTimestamp) {
  ThreadProtocol p;
  EXPECT_EQ(p.earliest_open_ts(), ~static_cast<std::uint64_t>(0));
  const Event stream[] = {
      ev(EventType::MutexAcquire, kOtherM, 5),
      ev(EventType::MutexAcquired, kOtherM, 6),
      ev(EventType::BarrierArrive, kB, 8),
      ev(EventType::MutexAcquire, kM, 10),
      ev(EventType::CondWaitBegin, kC, 12),
      ev(EventType::MutexReleased, kOtherM, 13),
      ev(EventType::BarrierLeave, kB, 14),
      ev(EventType::MutexAcquired, kM, 15),
      ev(EventType::MutexReleased, kM, 16),
      ev(EventType::CondWaitEnd, kC, 17),
  };
  // After each step: a held section counts from its request.
  const std::uint64_t want[] = {5, 5, 5, 5, 5, 8, 10, 10, 12,
                                ~static_cast<std::uint64_t>(0)};
  for (std::uint32_t i = 0; i < std::size(stream); ++i) {
    p.step(i, stream[i]);
    EXPECT_EQ(p.earliest_open_ts(), want[i]) << "after event " << i;
  }
}

// --- the rules every reader shares ---

Trace two_threads(std::vector<Event> t0, std::vector<Event> t1) {
  Trace trace;
  trace.add_thread_stream(0, std::move(t0));
  for (Event& e : t1) e.tid = 1;
  trace.add_thread_stream(1, std::move(t1));
  return trace;
}

/// Begin(c)@10 .. End(c)@80 with `extra` in between, signalled by T1@70.
Trace cond_trace(Event extra) {
  return two_threads({ev(EventType::ThreadStart, kNoObject, 0),
                      ev(EventType::CondWaitBegin, kC, 10), extra,
                      ev(EventType::CondWaitEnd, kC, 80),
                      ev(EventType::ThreadExit, kNoObject, 100)},
                     {ev(EventType::ThreadStart, kNoObject, 0),
                      ev(EventType::CondSignal, kC, 70),
                      ev(EventType::ThreadExit, kNoObject, 100)});
}

Options with(util::Strictness strictness, std::uint64_t max_rss_mb = 0) {
  Options options;
  options.strictness = strictness;
  options.limits.max_rss_mb = max_rss_mb;
  return options;
}

void expect_one_wait(Pipeline& pipeline, const char* where) {
  const analysis::TraceIndex& index = pipeline.trace_index();
  EXPECT_EQ(index.conds().at(kC).totals.waits, 1u) << where;
  const auto& waits = index.thread_cond_waits(0);
  ASSERT_EQ(waits.size(), 1u) << where;
  EXPECT_EQ(waits[0].begin_ts, 10u) << where;
  EXPECT_EQ(waits[0].end_ts, 80u) << where;
}

TEST(TraceProtocol, NestedWaitBeginKeepsTheFirst) {
  const Trace trace = cond_trace(ev(EventType::CondWaitBegin, kC, 50));
  util::DiagnosticSink sink;
  validate_trace(TraceView(trace), sink);
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, DiagCode::CLA_W_NESTED_COND_WAIT);

  Pipeline strict(with(util::Strictness::Strict));
  strict.use_trace(trace);
  expect_one_wait(strict, "strict");
  Pipeline repair(with(util::Strictness::Repair));
  repair.use_trace(trace);
  expect_one_wait(repair, "repair");
  EXPECT_EQ(strict.report_json(), repair.report_json());
}

TEST(TraceProtocol, WaitEndOnAnotherCondvarLeavesTheWaitOpen) {
  const Trace trace = cond_trace(ev(EventType::CondWaitEnd, kOtherC, 50));
  util::DiagnosticSink sink;
  validate_trace(TraceView(trace), sink);
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, DiagCode::CLA_W_UNPAIRED_WAIT_END);
  EXPECT_EQ(sink.diagnostics()[0].event, 2u);

  Pipeline batch(with(util::Strictness::Repair));
  batch.use_trace(trace);
  expect_one_wait(batch, "repair");
  for (const Event& e : batch.view().thread_events(0)) {
    EXPECT_NE(e.object, kOtherC) << "repair kept the foreign CondWaitEnd";
  }
  const std::string want = batch.report_json();

  Pipeline bounded(with(util::Strictness::Repair, 64));
  bounded.use_trace(trace);
  EXPECT_EQ(bounded.report_json(), want) << "--max-rss-mb";

  // The analyzer sees the unrepaired trace: its scan drops the End itself.
  analysis::IncrementalAnalyzer analyzer;
  analyzer.append(trace);
  EXPECT_EQ(analyzer.report_json(), want) << "IncrementalAnalyzer";
}

TEST(TraceProtocol, BarrierReArriveKeepsTheFirstArrival) {
  // T0 arrives at 10 and again at 30; T1 arrives at 20. With the first
  // arrival kept, T1 arrives last, so T0's Leave jumps onto T1.
  const Trace trace = two_threads({ev(EventType::ThreadStart, kNoObject, 0),
                                   ev(EventType::BarrierArrive, kB, 10),
                                   ev(EventType::BarrierArrive, kB, 30),
                                   ev(EventType::BarrierLeave, kB, 100),
                                   ev(EventType::ThreadExit, kNoObject, 110)},
                                  {ev(EventType::ThreadStart, kNoObject, 0),
                                   ev(EventType::BarrierArrive, kB, 20),
                                   ev(EventType::BarrierLeave, kB, 100),
                                   ev(EventType::ThreadExit, kNoObject, 110)});
  Options unvalidated;  // the cla-monitor path
  unvalidated.validate = false;
  Pipeline batch(unvalidated);
  batch.use_trace(trace);
  const analysis::TraceIndex& index = batch.trace_index();
  EXPECT_EQ(index.barriers().at(kB).totals.waits, 2u);
  const auto& waits = index.thread_barrier_waits(0);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].arrive_ts, 10u);
  EXPECT_EQ(index.thread_barrier_waits(1).size(), 1u);
  EXPECT_GT(batch.result().path.thread_time(1), 0u);

  unvalidated.limits.max_rss_mb = 64;
  Pipeline bounded(unvalidated);
  bounded.use_trace(trace);
  EXPECT_GT(bounded.result().path.thread_time(1), 0u);
  EXPECT_EQ(bounded.report_json(), batch.report_json());
}

}  // namespace
}  // namespace cla::trace

#include "cla/trace/clip.hpp"

#include <gtest/gtest.h>

#include "support/analyze.hpp"
#include "support/oracle.hpp"
#include "cla/sim/engine.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

TEST(Clip, IdentityWindowKeepsEverything) {
  TraceBuilder b;
  b.name_object(9, "L");
  b.thread(0).start(0).lock(9, 2, 2, 5).exit(10);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{0, 10});
  EXPECT_NO_THROW(clipped.validate());
  EXPECT_EQ(clipped.event_count(), t.event_count());
  EXPECT_EQ(clipped.start_ts(), 0u);
  EXPECT_EQ(clipped.end_ts(), 10u);
}

TEST(Clip, WindowTrimsThreadLifetimes) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 20, 20, 30).exit(100);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{10, 50});
  EXPECT_NO_THROW(clipped.validate());
  const auto events = clipped.thread_events(0);
  EXPECT_EQ(events.front().type, EventType::ThreadStart);
  EXPECT_EQ(events.front().ts, 10u);
  EXPECT_EQ(events.back().type, EventType::ThreadExit);
  EXPECT_EQ(events.back().ts, 50u);
}

TEST(Clip, DropsEventsOutsideWindow) {
  TraceBuilder b;
  b.thread(0)
      .start(0)
      .lock(9, 1, 1, 3)     // before the window
      .lock(9, 20, 20, 25)  // inside
      .lock(9, 80, 80, 85)  // after
      .exit(100);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{10, 50});
  EXPECT_NO_THROW(clipped.validate());
  std::size_t acquired = 0;
  for (const Event& e : clipped.thread_events(0)) {
    if (e.type == EventType::MutexAcquired) ++acquired;
  }
  EXPECT_EQ(acquired, 1u);
}

TEST(Clip, RepairsSectionHeldAcrossLeftEdge) {
  TraceBuilder b;
  b.name_object(9, "L");
  b.thread(0).start(0).lock(9, 1, 1, 40).exit(100);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{10, 50});
  EXPECT_NO_THROW(clipped.validate());
  // The hold [1,40) becomes [10,40): a synthetic acquisition at the edge.
  const auto result = test_support::analyze(clipped);
  const auto* l = result.find_lock("L");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->invocations, 1u);
  EXPECT_EQ(l->total_hold, 30u);
}

TEST(Clip, RepairsSectionHeldAcrossRightEdge) {
  TraceBuilder b;
  b.name_object(9, "L");
  b.thread(0).start(0).lock(9, 20, 20, 90).exit(100);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{10, 50});
  EXPECT_NO_THROW(clipped.validate());
  const auto result = test_support::analyze(clipped);
  const auto* l = result.find_lock("L");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->total_hold, 30u);  // [20,50) with a synthetic release
}

/// Clips `t` to `window` and checks the result validates with no
/// diagnostics at all; returns mutex 7's sections in ownership order.
std::vector<test_support::OracleSection> clip_sections(const Trace& t,
                                                       Window window) {
  const Trace clipped = clip_trace(t, window);
  util::DiagnosticSink sink;
  EXPECT_TRUE(validate_trace(clipped, sink));
  for (const auto& d : sink.diagnostics()) ADD_FAILURE() << d.to_string();
  return test_support::Oracle(TraceView(clipped)).locks().at(7);
}

TEST(Clip, ReopensHeldDepthAndPendingRelockAtLeftEdge) {
  // Recursive mutex 7 is held, and the re-lock's Acquire@20 is still
  // pending when the window opens at 30.
  TraceBuilder b;
  b.thread(0)
      .start(0)
      .acquire(7, 5)
      .acquired(7, 5, false)
      .acquire(7, 20)
      .acquired(7, 40, true)
      .released(7, 50)
      .released(7, 60)
      .exit(100);
  const auto secs = clip_sections(b.finish_unchecked(), Window{30, 90});
  ASSERT_EQ(secs.size(), 2u);
  EXPECT_EQ(secs[0].acquired_ts, 30u);  // the outer hold, re-opened
  EXPECT_EQ(secs[0].released_ts, 60u);
  EXPECT_EQ(secs[1].acquire_ts, 30u);   // the re-lock, re-issued
  EXPECT_EQ(secs[1].acquired_ts, 40u);
  EXPECT_EQ(secs[1].released_ts, 50u);
}

TEST(Clip, ReleasesEveryHeldDepthAtRightEdge) {
  TraceBuilder b;
  b.thread(0)
      .start(0)
      .acquire(7, 1)
      .acquired(7, 1, false)
      .acquire(7, 10)
      .acquired(7, 12, false)
      .released(7, 40)
      .released(7, 50)
      .exit(60);
  const auto secs = clip_sections(b.finish_unchecked(), Window{5, 30});
  ASSERT_EQ(secs.size(), 2u);
  EXPECT_EQ(secs[0].acquired_ts, 5u);
  EXPECT_EQ(secs[1].acquired_ts, 12u);
  EXPECT_EQ(secs[0].released_ts, 30u);
  EXPECT_EQ(secs[1].released_ts, 30u);
}

TEST(Clip, DropsDanglingBarrierArrive) {
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 40, 60, 0).exit(100);
  const Trace t = b.finish();
  const Trace clipped = clip_trace(t, Window{10, 50});
  EXPECT_NO_THROW(clipped.validate());
  for (const Event& e : clipped.thread_events(0)) {
    EXPECT_NE(e.type, EventType::BarrierArrive);
    EXPECT_NE(e.type, EventType::BarrierLeave);
  }
}

TEST(Clip, DropsThreadsEntirelyOutsideWindow) {
  TraceBuilder b;
  b.thread(0).start(0).exit(100);
  b.thread(1).start(60, kNoThread).exit(90);
  const Trace t = b.finish_unchecked();
  const Trace clipped = clip_trace(t, Window{10, 50});
  // Thread 1 never overlaps [10,50]: its stream is empty in the clip.
  EXPECT_EQ(clipped.thread_events(0).size(), 2u);
  if (clipped.thread_count() > 1) {
    EXPECT_TRUE(clipped.thread_events(1).empty());
  }
}

TEST(Clip, PreservesNames) {
  TraceBuilder b;
  b.name_object(9, "Qlock");
  b.name_thread(0, "main");
  b.thread(0).start(0).lock(9, 5, 5, 8).exit(10);
  const Trace clippedsrc = b.finish();
  const Trace clipped = clip_trace(clippedsrc, Window{0, 10});
  ASSERT_NE(clipped.object_name(9), nullptr);
  EXPECT_EQ(*clipped.object_name(9), "Qlock");
  EXPECT_EQ(clipped.thread_display_name(0), "main");
}

TEST(Clip, InvertedWindowThrows) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const Trace t = b.finish();
  EXPECT_THROW(clip_trace(t, Window{20, 10}), util::Error);
}

TEST(Phase, FindPhaseMatchesMarkers) {
  Trace t;
  t.add(Event{0, kNoObject, kNoArg, EventType::ThreadStart, 0, 0});
  t.add(Event{10, kNoObject, kNoArg, EventType::PhaseBegin, 0, 0});
  t.add(Event{30, kNoObject, kNoArg, EventType::PhaseEnd, 0, 0});
  t.add(Event{40, kNoObject, kNoArg, EventType::PhaseBegin, 0, 0});
  t.add(Event{70, kNoObject, kNoArg, EventType::PhaseEnd, 0, 0});
  t.add(Event{100, kNoObject, kNoArg, EventType::ThreadExit, 0, 0});
  const auto phase0 = find_phase(t, 0);
  ASSERT_TRUE(phase0.has_value());
  EXPECT_EQ(phase0->begin, 10u);
  EXPECT_EQ(phase0->end, 30u);
  const auto phase1 = find_phase(t, 1);
  ASSERT_TRUE(phase1.has_value());
  EXPECT_EQ(phase1->begin, 40u);
  EXPECT_EQ(phase1->end, 70u);
  EXPECT_FALSE(find_phase(t, 2).has_value());
}

TEST(Phase, ClipToMissingPhaseThrows) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const Trace t = b.finish();
  EXPECT_THROW(clip_to_phase(t, 0), util::Error);
}

TEST(Phase, SimPhaseMarkersDriveClippedAnalysis) {
  // Two regions: a serial warm-up on lock A, then a marked parallel phase
  // dominated by lock B. Clipping to the phase must rank B first and
  // shrink the completion time to the phase length.
  sim::Engine engine;
  const auto a = engine.create_mutex("A");
  const auto b = engine.create_mutex("B");
  engine.run([&](sim::TaskCtx& main) {
    main.lock(a);
    main.compute(100);
    main.unlock(a);
    main.phase_begin();
    std::vector<sim::TaskId> kids;
    for (int i = 0; i < 2; ++i) {
      kids.push_back(main.spawn([&](sim::TaskCtx& task) {
        task.lock(b);
        task.compute(40);
        task.unlock(b);
      }));
    }
    for (const auto kid : kids) main.join(kid);
    main.phase_end();
  });
  const trace::Trace full = engine.take_trace();
  const auto full_result = test_support::analyze(full);
  EXPECT_EQ(full_result.locks.front().name, "A");

  const trace::Trace phase = clip_to_phase(full, 0);
  EXPECT_NO_THROW(phase.validate());
  const auto phase_result = test_support::analyze(phase);
  EXPECT_EQ(phase_result.locks.front().name, "B");
  EXPECT_EQ(phase_result.completion_time, 80u);  // two serialized 40s
}

}  // namespace
}  // namespace cla::trace

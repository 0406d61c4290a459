// Segment DAG: structural invariants and walk equivalence.
//
// The DAG is the parallel engine's intermediate representation; these
// tests pin (a) its structural contract (segment 0 at event 0, blocking
// boundaries in bijection with segments past it, hop landing rules) and
// (b) that the speculative merge walk reproduces the paper's event-level
// backward walk (support/oracle.hpp) *exactly* — same intervals,
// same jumps, same endpoints — with and without a thread pool.
#include <gtest/gtest.h>

#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/segment_dag.hpp"
#include "cla/util/thread_pool.hpp"
#include "cla/workloads/workload.hpp"
#include "support/oracle.hpp"

namespace cla::analysis {
namespace {

trace::Trace make_trace(const char* workload, unsigned threads = 8) {
  workloads::WorkloadConfig config;
  config.threads = threads;
  config.scale = 0.25;
  return workloads::run_workload(workload, config).trace;
}

TEST(SegmentDagTest, StructuralInvariants) {
  const trace::Trace trace = make_trace("micro");
  const trace::TraceView view(trace);
  const TraceIndex index(view);
  const SegmentDag dag = SegmentDag::build(index, nullptr);

  ASSERT_EQ(dag.thread_count(), view.thread_count());
  EXPECT_EQ(dag.last_finished_thread(), index.last_finished_thread());
  std::size_t total = 0;
  for (trace::ThreadId tid = 0; tid < view.thread_count(); ++tid) {
    const auto& segs = dag.thread_segments(tid);
    ASSERT_FALSE(segs.empty()) << "tid " << tid;
    EXPECT_EQ(segs[0].begin_idx, 0u) << "tid " << tid;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Segment& s = segs[i];
      if (i > 0) {
        EXPECT_GT(s.begin_idx, segs[i - 1].begin_idx) << "tid " << tid;
        // Every non-initial segment begins at a blocking wake-up.
        EXPECT_TRUE(s.has_jump()) << "tid " << tid << " seg " << i;
      }
      EXPECT_EQ(s.begin_ts, view.thread_events(tid).ts_at(s.begin_idx));
      if (s.has_jump()) {
        const trace::ThreadId target = s.jump_to.tid;
        const std::uint32_t j = s.jump_to.index;
        EXPECT_EQ(s.jump_ts, view.thread_events(target).ts_at(j));
        // Landing rule: the walker resumes scanning below the releaser.
        EXPECT_EQ(s.jump_seg, dag.segment_at(target, j == 0 ? 0 : j - 1));
      }
      // segment_at maps the begin event back to this segment.
      EXPECT_EQ(dag.segment_at(tid, s.begin_idx), i) << "tid " << tid;
      EXPECT_EQ(dag.global_id(tid, static_cast<std::uint32_t>(i)), total + i);
    }
    total += segs.size();
  }
  EXPECT_EQ(dag.segment_count(), total);
}

TEST(SegmentDagTest, PooledBuildMatchesInlineBuild) {
  const trace::Trace trace = make_trace("tsp");
  const trace::TraceView view(trace);
  const TraceIndex index(view);
  const SegmentDag inline_dag = SegmentDag::build(index, nullptr);
  util::ThreadPool pool(4);
  const SegmentDag pooled_dag = SegmentDag::build(index, &pool);

  ASSERT_EQ(pooled_dag.thread_count(), inline_dag.thread_count());
  ASSERT_EQ(pooled_dag.segment_count(), inline_dag.segment_count());
  for (trace::ThreadId tid = 0; tid < view.thread_count(); ++tid) {
    const auto& a = inline_dag.thread_segments(tid);
    const auto& b = pooled_dag.thread_segments(tid);
    ASSERT_EQ(a.size(), b.size()) << "tid " << tid;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].begin_idx, b[i].begin_idx);
      EXPECT_EQ(a[i].jump_to, b[i].jump_to);
      EXPECT_EQ(a[i].jump_ts, b[i].jump_ts);
      EXPECT_EQ(a[i].jump_seg, b[i].jump_seg);
    }
  }
}

TEST(SegmentDagTest, DagWalkMatchesSequentialWalk) {
  for (const char* workload : {"micro", "radiosity", "tsp", "uts"}) {
    const trace::Trace trace = make_trace(workload);
    const trace::TraceView view(trace);
    const TraceIndex index(view);
    const CriticalPath reference =
        test_support::reference_walk(index, test_support::Oracle(view));

    const SegmentDag dag = SegmentDag::build(index, nullptr);
    DagWalkStats stats;
    const CriticalPath inline_walk =
        compute_critical_path(dag, nullptr, nullptr, &stats);
    test_support::expect_same_path(reference, inline_walk, workload);
    EXPECT_EQ(stats.jumps_taken, reference.jumps.size()) << workload;
    EXPECT_EQ(stats.segments, dag.segment_count()) << workload;

    for (unsigned workers : {2u, 8u}) {
      util::ThreadPool pool(workers);
      const SegmentDag pooled_dag = SegmentDag::build(index, &pool);
      const CriticalPath pooled_walk =
          compute_critical_path(pooled_dag, &pool, nullptr, nullptr);
      test_support::expect_same_path(reference, pooled_walk, workload);
    }
  }
}

TEST(SegmentDagTest, SingleThreadTraceHasOneSegmentPerThread) {
  const trace::Trace trace = make_trace("micro", 1);
  const trace::TraceView view(trace);
  const TraceIndex index(view);
  const SegmentDag dag = SegmentDag::build(index, nullptr);
  // With one worker there can still be a main thread + worker structure;
  // every thread must own at least its initial segment.
  for (trace::ThreadId tid = 0; tid < view.thread_count(); ++tid) {
    EXPECT_GE(dag.thread_segments(tid).size(), 1u);
  }
}

}  // namespace
}  // namespace cla::analysis

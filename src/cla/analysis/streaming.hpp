// Bounded-RSS streaming analysis engine.
//
// The regular pipeline materializes a full per-primitive TraceIndex —
// O(sync events) of heap — before anything else runs. For traces larger
// than RAM that is fatal, so this engine computes the *same* report a
// different way:
//
//   1. sweep   — one k-way cursor sweep over the per-thread event columns
//                in (ts, tid) order resolves every blocking wake-up with
//                O(open records) of carry state and emits segments only;
//   2. dag     — the retained segments become a SegmentDag;
//   3. walk    — the merge walk produces the critical path;
//   4. stats   — per-thread rescans fold every closed record into
//                integer totals (MutexIndex with no sections, as the full
//                index keeps them) using transient per-thread state;
//                assemble_stats, the assembly compute_stats ends in,
//                turns them into the report's figures.
//
// Retained state is byte-accounted against `budget_bytes`; exceeding the
// budget aborts with a ResourceLimitError (CLI exit code 4). The report
// is byte-identical to the unbounded pipeline's on well-formed traces
// (the determinism suite pins this); see DESIGN §12 for the two
// documented divergences on physically impossible interleavings.
#pragma once

#include <cstdint>

#include "cla/analysis/segment_dag.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/guard.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// Wall-clock of the engine's four phases, mapped onto the pipeline's
/// Index/BuildDag/Walk/Stats profile entries.
struct StreamingTimings {
  std::uint64_t sweep_ns = 0;
  std::uint64_t dag_ns = 0;
  std::uint64_t walk_ns = 0;
  std::uint64_t stats_ns = 0;
};

struct StreamingOutcome {
  AnalysisResult result;
  DagWalkStats walk_stats;  ///< includes the DAG's segment count
  std::uint64_t peak_bytes = 0;  ///< peak accounted retained bytes
  StreamingTimings timings;
};

/// Runs the streaming engine end to end. `budget_bytes` bounds the
/// retained analysis state (0 = account but never abort); `pool` fans out
/// the walk's interval merge and the per-thread stats rescans.
StreamingOutcome analyze_streaming(const trace::TraceView& view,
                                   const StatsOptions& options,
                                   util::ThreadPool* pool,
                                   std::uint64_t budget_bytes,
                                   const util::Deadline* deadline = nullptr);

}  // namespace cla::analysis

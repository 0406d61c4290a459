// Incremental append analysis: extend the segment DAG as a trace grows.
//
// A long-running target flushes its trace in rounds; re-analyzing from
// scratch each round is O(history). The IncrementalAnalyzer instead keeps
//   - one resumable ThreadScanState per thread (the O(events) forward
//     scan never revisits an event; it holds only open records),
//   - one TraceIndex, extended in place every round, which holds each
//     closed section once, as a row of its thread's section table, and
//     keeps running per-mutex TYPE 2 totals, and
//   - one SegmentDag, extended in place every round.
// On update it computes a *re-resolution boundary*: the earliest
// timestamp whose wake-up resolution could have changed, which is the
// minimum of (a) the first newly appended event's timestamp (every
// appended one, for a thread whose timestamps regress) and (b) the
// start of any record still open after the previous round (an open
// critical section that closes later moves its waiters' releaser).
// The index replaces the rows of sections that were still held and
// merges the new ones into each mutex's ownership order from the first
// entry that sorts after them, never before the boundary; the DAG keeps
// the segments
// beginning before the boundary, with their hops, and rediscovers the
// rest against the extended index. The walk runs on the extended DAG and
// compute_stats reads the index's totals plus the sections near the
// path, so reports are byte-identical to a from-scratch cla::Pipeline
// over the same accumulated trace (the determinism suite and the
// per-round incremental tests pin this).
//
// Per-refresh cost, with Options::validate = false (as cla-monitor sets
// it), is O(appended + tail + path + near-path sections + locks):
//   - scan: the appended events only;
//   - index: the drained sections, plus each grown mutex's merged
//     order tail;
//   - DAG: the events from the boundary on (a retained segment keeps
//     its releaser; the walk looks up where a hop lands);
//   - walk: the path, plus clearing an O(segments) visited set;
//   - TYPE 1: the sections near the path, read from the per-thread
//     section tables (and a section's MutexAcquire arg only if it carries
//     a call stack);
//   - assembly: O(locks × threads).
// What still grows with history: the barrier/condvar regroup in
// TraceIndex::extend() (in full whenever they grow), the assembly and the
// visited set — small next to the rest (one segment per tens of events).
// With the default Options::validate = true, every refresh first
// strict-validates the whole accumulated trace, an O(history) pass that
// also rejects a trace cut mid-section; callers that refresh a live tail
// turn it off.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cla/analysis/index.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/analysis/segment_dag.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/trace.hpp"

namespace cla::analysis {

class IncrementalAnalyzer {
 public:
  explicit IncrementalAnalyzer(Options options = {});
  ~IncrementalAnalyzer();

  IncrementalAnalyzer(const IncrementalAnalyzer&) = delete;
  IncrementalAnalyzer& operator=(const IncrementalAnalyzer&) = delete;

  /// Appends a chunk of trace: per-thread event spans (each sorted by
  /// timestamp and extending that thread's stream) plus its tables, merged
  /// last-write-wins (drop counts add up). A chunk that changes only the
  /// tables still refreshes the next result(). Cheap — analysis happens
  /// lazily in result().
  void append(const trace::Trace& chunk);

  /// The analysis of everything appended so far. Extends the index and
  /// the DAG, re-resolving only the tail past the re-resolution boundary,
  /// then walks the DAG and recomputes the stats; unchanged rounds are
  /// free. After a throw (a budget breach) the analyzer is spent: callers
  /// discard it and start a fresh window.
  const AnalysisResult& result();

  /// Schema-2 JSON, byte-identical to cla::Pipeline::report_json() over
  /// the same accumulated trace.
  std::string report_json();

  /// The accumulated trace.
  const trace::Trace& trace() const noexcept { return trace_; }

  /// The index as the last result() refresh left it.
  const TraceIndex& index() const noexcept { return index_; }

  /// Observability: segments kept from the previous round vs re-resolved
  /// in the last result() refresh, and the walk's hop counters.
  std::uint64_t retained_segments() const noexcept { return retained_; }
  std::uint64_t rescanned_segments() const noexcept { return rescanned_; }
  const DagWalkStats& walk_stats() const noexcept { return walk_stats_; }

 private:
  void refresh();

  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;
  trace::Trace trace_;
  std::vector<ThreadScanState> scans_;
  TraceIndex index_;
  SegmentDag dag_;
  std::optional<AnalysisResult> result_;
  DagWalkStats walk_stats_;
  std::uint64_t retained_ = 0;
  std::uint64_t rescanned_ = 0;
  bool dirty_ = false;
};

}  // namespace cla::analysis

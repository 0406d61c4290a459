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
// rest against the extended index. The walk runs on the extended DAG down
// to where it meets the last refresh's path and reuses the path below
// (a WalkRecord); the TYPE 1 sums keep every section's figures that ended
// before its thread's path intervals or rows could have changed (a
// PathSums); compute_stats reads the index's totals and rewrites the lock
// rows of the last result in place (a LockTable), so reports are
// byte-identical to a from-scratch cla::Pipeline over the same
// accumulated trace (the determinism suite and the per-round
// incremental and oracle tests pin this).
//
// Per-refresh cost, with Options::validate = false (as cla-monitor sets
// it), is O(appended + tail + new path + locks × threads):
//   - scan: the appended events only;
//   - index: the drained sections, plus each grown mutex's new
//     references, merged into its order only when one sorts before the
//     old tail;
//   - DAG: the events from the boundary on (a retained segment keeps
//     its releaser; the walk looks up where a hop lands);
//   - walk: the steps from the new end down to the last refresh's path
//     (a hash lookup each), the dropped and new path intervals, and each
//     changed thread's merged intervals from where they change;
//   - TYPE 1: per thread, the sections acquired after the earlier of the
//     boundary and where its path intervals change, less its longest
//     hold, that lie near the path (read from the section tables);
//   - assembly: O(locks × threads) divisions, one pass per thread over
//     its times by mutex slot: every thread's duration grows each round,
//     so every lock's TYPE 2 averages change. The lock rows, names and
//     name ranks stay in a LockTable between refreshes; the ranking sorts
//     only the locks whose hold or wait changed and merges them into the
//     rest, and moves only the rows whose rank changed.
// What still grows with history: the barrier/condvar regroup in
// TraceIndex::extend() (in full whenever they grow), the assembly's
// divisions (locks × threads, not history), and a walk that cannot
// splice (a thread whose timestamps regress turns splicing off) — small
// next to the rest (one segment per tens of events).
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

#include "cla/analysis/critical_path.hpp"
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
  /// in the last result() refresh, and the walk's hop counters (with the
  /// path steps it reused from the previous refresh's walk).
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
  WalkRecord walk_record_;
  PathSums path_sums_;
  LockTable lock_table_;
  std::optional<AnalysisResult> result_;
  DagWalkStats walk_stats_;
  std::uint64_t retained_ = 0;
  std::uint64_t rescanned_ = 0;
  bool dirty_ = false;
  bool names_changed_ = false;  ///< the tables changed since the last refresh
};

}  // namespace cla::analysis

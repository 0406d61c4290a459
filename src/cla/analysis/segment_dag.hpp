// Segment DAG: the analysis core's compact intermediate representation.
//
// A *segment* is a maximal stretch of one thread's events between two
// consecutive blocking wake-ups: it begins either at the thread's first
// event or at a wake-up that actually blocked and has a known releaser
// (exactly the positions where the paper's backward walk jumps threads).
// Each segment stores the releaser its begin event hops to; the walk
// finds where a hop lands only when it takes that hop (a search of the
// target thread's segments), since it takes only a small share of them. The DAG therefore holds everything the backward critical-path
// construction needs, at a fraction of the per-event footprint: typical
// traces have one segment per tens to thousands of events.
//
// Segments are discovered shard-parallel straight from the trace's
// columns (one task per thread), and the DAG is storage-agnostic — it
// only keeps a TraceView. It can also grow in place as a live trace
// appends (extend()), which is how the incremental analyzer keeps one DAG
// across rounds. See DESIGN §12.
#pragma once

#include <cstdint>
#include <vector>

#include "cla/analysis/index.hpp"
#include "cla/util/guard.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// One node of the DAG. Edges: to the previous segment on the same thread
/// (implicit, local index - 1) and, when the begin event blocked, to the
/// segment containing the event just below its releaser (segment 0 when
/// the releaser is its thread's first event), which the walk looks up.
struct Segment {
  std::uint32_t begin_idx = 0;   ///< event index where the segment starts
  std::uint64_t begin_ts = 0;    ///< timestamp of that event
  EventRef jump_to;              ///< releaser event; invalid = no blocking hop
  trace::EventType kind = trace::EventType::ThreadStart;  ///< begin type
  trace::ObjectId object = trace::kNoObject;  ///< begin event's object

  bool has_jump() const noexcept { return jump_to.valid(); }
};

/// Counters from the merge walk (the JSON schema-2 "dag" block reports
/// `segments`; perfbench reads the hop counts).
struct DagWalkStats {
  std::uint64_t segments = 0;           ///< nodes in the DAG
  std::uint64_t jumps_taken = 0;        ///< hops the merge walk consumed
  std::uint64_t speculation_misses = 0; ///< the DAG's hops it did not take
  std::uint64_t merge_steps = 0;        ///< merge-walk iterations
  /// Path steps a spliced walk reused from the previous walk instead of
  /// walking them (compute_critical_path with a WalkRecord).
  std::uint64_t reused_steps = 0;
};

/// The segment DAG of one trace. Cheap to copy is a non-goal (it owns the
/// per-thread segment vectors).
class SegmentDag {
 public:
  /// An empty DAG over no trace; extend() grows it.
  SegmentDag() = default;

  /// Builds the DAG from an index: extend() from empty with boundary 0.
  static SegmentDag build(const TraceIndex& index, util::ThreadPool* pool,
                          const util::Deadline* deadline = nullptr);

  /// Extends the DAG in place to `index`, built over a grown version of
  /// the trace this DAG covers. Every segment that begins at or after
  /// `boundary` is dropped (a binary search per thread: begin_ts ascends),
  /// then one shard per thread scans its type column from `boundary` on
  /// for blocking wake-ups (via resolve_wakeup). A thread whose timestamps
  /// regress has no time order to cut at and is rediscovered from its
  /// first event. The caller picks `boundary` so that no wake-up before it
  /// resolves differently against `index`: the incremental analyzer's
  /// re-resolution boundary, or 0. A retained segment keeps its releaser;
  /// where its hop lands is not stored, so nothing else needs revisiting.
  ///
  /// The cost is O(threads + rescanned events), plus the full history of
  /// a thread whose timestamps regress. The result is identical to
  /// build() over `index`. A null pool (or a pool of size 1) runs inline,
  /// bit-identically. A non-null deadline is polled periodically; after a
  /// throw the DAG is unusable until rebuilt.
  void extend(const TraceIndex& index, std::uint64_t boundary,
              util::ThreadPool* pool, const util::Deadline* deadline = nullptr);

  /// Assembles a DAG from externally built per-thread segment vectors
  /// (each sorted by begin_idx) — the bounded-RSS engine discovers
  /// segments in its own sweep. `last_thread` is the walk's start thread.
  SegmentDag(trace::TraceView view,
             std::vector<std::vector<Segment>> threads,
             trace::ThreadId last_thread);

  const trace::TraceView& view() const noexcept { return view_; }
  std::size_t thread_count() const noexcept { return threads_.size(); }
  const std::vector<Segment>& thread_segments(trace::ThreadId tid) const;
  std::size_t segment_count() const noexcept { return total_; }
  /// Segments with a blocking hop (has_jump()).
  std::size_t hop_count() const noexcept { return hops_; }
  /// Segments the last extend() kept rather than rediscovered.
  std::size_t retained_count() const noexcept { return retained_; }
  trace::ThreadId last_finished_thread() const noexcept { return last_thread_; }

  /// Local index of the segment of `tid` containing event `idx`.
  std::uint32_t segment_at(trace::ThreadId tid, std::uint32_t idx) const;

  /// Global node id (bitset index) of segment `local` of `tid`.
  std::size_t global_id(trace::ThreadId tid, std::uint32_t local) const {
    return offsets_[tid] + local;
  }

 private:
  /// Refreshes offsets_ and total_ from the per-thread counts.
  void number_segments();

  trace::TraceView view_;
  std::vector<std::vector<Segment>> threads_;
  std::vector<std::size_t> offsets_;  ///< prefix sums of per-thread counts
  trace::ThreadId last_thread_ = 0;
  std::size_t total_ = 0;
  std::size_t hops_ = 0;
  std::size_t retained_ = 0;
};

}  // namespace cla::analysis

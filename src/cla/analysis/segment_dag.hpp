// Segment DAG: the analysis core's compact intermediate representation.
//
// A *segment* is a maximal stretch of one thread's events between two
// consecutive blocking wake-ups: it begins either at the thread's first
// event or at a wake-up that actually blocked and has a known releaser
// (exactly the positions where the paper's backward walk jumps threads).
// Each segment stores the hop its begin event would take — precomputed
// for *every* segment, speculatively, because path membership is only
// known after the merge walk consumed the chain. The DAG therefore holds
// everything the backward critical-path construction needs, at a fraction
// of the per-event footprint: typical traces have one segment per tens to
// thousands of events.
//
// Segments are built shard-parallel straight from the trace's columns
// (one task per thread, plus a chunked hop-resolution pass), and the DAG
// is storage-agnostic — it only keeps a TraceView. It can also grow in
// place as a live trace appends (extend()), which is how the incremental
// analyzer keeps one DAG across rounds. See DESIGN §12.
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
/// segment containing its releaser (jump_to / jump_seg).
struct Segment {
  std::uint32_t begin_idx = 0;   ///< event index where the segment starts
  std::uint64_t begin_ts = 0;    ///< timestamp of that event
  EventRef jump_to;              ///< releaser event; invalid = no blocking hop
  std::uint64_t jump_ts = 0;     ///< timestamp of the releaser event
  std::uint32_t jump_seg = 0;    ///< local index of the segment the walk
                                 ///< lands in after the hop (the segment
                                 ///< containing jump_to.index - 1, or
                                 ///< segment 0 when the releaser is the
                                 ///< target thread's first event)
  trace::EventType kind = trace::EventType::ThreadStart;  ///< begin type
  trace::ObjectId object = trace::kNoObject;  ///< begin event's object

  bool has_jump() const noexcept { return jump_to.valid(); }
};

/// Counters from the speculative parallel walk (reported in the JSON
/// schema-2 "dag" block and by bench_analysis_core).
struct DagWalkStats {
  std::uint64_t segments = 0;           ///< nodes in the DAG
  std::uint64_t jumps_taken = 0;        ///< hops the merge walk consumed
  std::uint64_t speculation_misses = 0; ///< precomputed hops never consumed
  std::uint64_t merge_steps = 0;        ///< merge-walk iterations
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
  /// for blocking wake-ups (via resolve_wakeup), and a chunked pass
  /// resolves the landing segment of each new hop. A retained segment
  /// keeps its landing segment, which cannot move while the releaser
  /// lies before the boundary, since dropping only ever removes segments
  /// from a thread's end; a retained hop to a releaser at or after the
  /// boundary is resolved again. The caller picks `boundary` so that no
  /// wake-up before it resolves differently against `index`: the
  /// incremental analyzer's re-resolution boundary, or 0.
  ///
  /// The cost is O(threads + rescanned events + new segments), plus a full
  /// rediscovery of any thread whose timestamps regress (then every hop is
  /// resolved again). The result is identical to build() over `index`. A
  /// null pool (or a pool of size 1) runs inline, bit-identically. A
  /// non-null deadline is polled periodically; after a throw the DAG is
  /// unusable until rebuilt.
  void extend(const TraceIndex& index, std::uint64_t boundary,
              util::ThreadPool* pool, const util::Deadline* deadline = nullptr);

  /// Assembles a DAG from externally built per-thread segment vectors
  /// (each sorted by begin_idx, hops unresolved) — the bounded-RSS engine
  /// constructs segments itself and only needs the hop-resolution pass.
  /// `last_thread` is the walk's start thread.
  SegmentDag(trace::TraceView view,
             std::vector<std::vector<Segment>> threads,
             trace::ThreadId last_thread, util::ThreadPool* pool,
             const util::Deadline* deadline = nullptr);

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
  /// Resolves the landing segment of every hop in segments [from[tid],
  /// end) of each thread and of the retained late hops whose releaser
  /// lies at or after `boundary`; refreshes the offsets.
  void resolve_hops(const std::vector<std::uint32_t>& from,
                    std::uint64_t boundary, util::ThreadPool* pool,
                    const util::Deadline* deadline);
  void resolve_hop(Segment& s) const;

  trace::TraceView view_;
  std::vector<std::vector<Segment>> threads_;
  std::vector<std::size_t> offsets_;  ///< prefix sums of per-thread counts
  /// Per thread, the local indices of segments whose releaser is later
  /// than their begin (only malformed traces have them): the retained
  /// hops extend() may have to resolve again.
  std::vector<std::vector<std::uint32_t>> late_hops_;
  trace::ThreadId last_thread_ = 0;
  std::size_t total_ = 0;
  std::size_t hops_ = 0;
  std::size_t retained_ = 0;
};

}  // namespace cla::analysis

// Forward indexing of a trace by synchronization primitive.
//
// The critical-lock algorithm (paper Fig. 2) needs, for every blocking
// wake-up, "the segment that released me". This index precomputes the
// per-primitive structures that make that lookup O(log n):
//   - per-mutex critical sections in acquisition order (owner chain),
//   - per-barrier episodes with their last arriver,
//   - per-condvar signal lists and wait records,
//   - thread lifecycle (create/join/exit) relations.
// The index can also grow in place as a live trace appends (extend()),
// which is how the incremental analyzer keeps one index across rounds.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cla/trace/protocol.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// Position of an event inside a trace: (thread, index into its stream).
struct EventRef {
  trace::ThreadId tid = trace::kNoThread;
  std::uint32_t index = 0;

  bool valid() const noexcept { return tid != trace::kNoThread; }
  friend bool operator==(const EventRef&, const EventRef&) = default;
  friend auto operator<=>(const EventRef&, const EventRef&) = default;
};

/// One execution of a critical section (MutexAcquire/Acquired/Released).
struct CsRecord {
  trace::ThreadId tid = 0;
  std::uint32_t acquire_idx = 0;
  std::uint32_t acquired_idx = 0;
  std::uint32_t released_idx = 0;
  std::uint64_t acquire_ts = 0;   ///< request issued
  std::uint64_t acquired_ts = 0;  ///< lock obtained
  std::uint64_t released_ts = 0;  ///< lock released
  /// Acquisition call-stack id from MutexAcquire's arg (the trace's
  /// CallStacks table); 0 when the trace carries no callsite capture.
  std::uint64_t stack_id = 0;
  bool contended = false;
  /// Still held at the end of the indexed stream, so closed at the
  /// thread's exit for now; the next TraceIndex::extend() replaces it.
  bool provisional = false;

  std::uint64_t wait_time() const noexcept { return acquired_ts - acquire_ts; }
  std::uint64_t hold_time() const noexcept { return released_ts - acquired_ts; }
};

/// Integer sums over a set of critical sections — the inputs of the
/// paper's TYPE 2 statistics. Sums wrap modulo 2^64 exactly like a fresh
/// fold, so taking a section out and putting it back is exact.
struct SectionTotals {
  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
  std::uint64_t wait = 0;  ///< ns, summed wait_time()
  std::uint64_t hold = 0;  ///< ns, summed hold_time()

  void add(const CsRecord& cs) noexcept {
    ++invocations;
    contended += cs.contended ? 1 : 0;
    wait += cs.wait_time();
    hold += cs.hold_time();
  }
  void subtract(const CsRecord& cs) noexcept {
    --invocations;
    contended -= cs.contended ? 1 : 0;
    wait -= cs.wait_time();
    hold -= cs.hold_time();
  }
  friend bool operator==(const SectionTotals&, const SectionTotals&) = default;
};

/// All critical sections of one mutex in ownership order: sorted by
/// (acquired_ts, tid, acquired_idx). sections[k-1] released the lock that
/// sections[k] obtained — the paper's "thread holding the same lock
/// adjacently before the blocked thread".
///
/// The totals are running sums over `sections`, kept by
/// TraceIndex::extend(): it subtracts the sections it takes out of a
/// mutex's tail (provisional ones) and adds the ones it puts in, so
/// compute_stats reads TYPE 2 figures without visiting any section. The
/// bounded-RSS engine fills the totals alone, leaving `sections` empty.
struct MutexIndex {
  trace::ObjectId id = trace::kNoObject;
  std::vector<CsRecord> sections;
  SectionTotals totals;
  /// Summed wait and hold time per thread (index = tid), sized to the
  /// index's thread count.
  std::vector<std::uint64_t> wait_per_thread;
  std::vector<std::uint64_t> hold_per_thread;
  /// Totals per acquisition call stack (CsRecord::stack_id != 0). A stack
  /// id whose sections all left the index has no entry.
  std::map<std::uint64_t, SectionTotals> callsites;

  /// Adds `cs` to the running totals (not to `sections`). The per-thread
  /// vectors must already cover cs.tid.
  void count(const CsRecord& cs);
  /// Takes `cs`, counted earlier, back out of the running totals.
  void uncount(const CsRecord& cs);
};

/// One thread's passage through a barrier (Arrive .. Leave).
struct BarrierWaitRecord {
  trace::ThreadId tid = 0;
  std::uint32_t arrive_idx = 0;
  std::uint32_t leave_idx = 0;
  std::uint64_t arrive_ts = 0;
  std::uint64_t leave_ts = 0;
  std::uint32_t episode = 0;     ///< dense index into BarrierIndex::episodes
  /// The producer's generation number, or the per-thread wait ordinal when
  /// none was recorded; TraceIndex numbers episodes densely from it.
  std::uint32_t generation = 0;
};

/// One barrier generation: which waits belong to it and who arrived last
/// ("the thread reaching the same barrier lastly is the desired one").
struct BarrierEpisode {
  std::vector<std::uint32_t> waits;  ///< indices into BarrierIndex::waits
  std::uint32_t last_arriver = 0;    ///< index into BarrierIndex::waits
};

struct BarrierIndex {
  trace::ObjectId id = trace::kNoObject;
  std::vector<BarrierWaitRecord> waits;
  std::vector<BarrierEpisode> episodes;
};

/// A signal/broadcast on a condition variable.
struct CondSignalRecord {
  trace::ThreadId tid = 0;
  std::uint32_t idx = 0;
  std::uint64_t ts = 0;
  bool broadcast = false;
};

/// A wait on a condition variable (WaitBegin .. WaitEnd).
struct CondWaitRecord {
  trace::ThreadId tid = 0;
  std::uint32_t begin_idx = 0;
  std::uint32_t end_idx = 0;
  std::uint64_t begin_ts = 0;
  std::uint64_t end_ts = 0;
};

struct CondIndex {
  trace::ObjectId id = trace::kNoObject;
  std::vector<CondSignalRecord> signals;  ///< sorted by ts
  std::vector<CondWaitRecord> waits;
};

/// Lifecycle facts about one thread.
struct ThreadInfo {
  std::uint64_t start_ts = 0;
  std::uint64_t exit_ts = 0;
  std::uint32_t exit_idx = 0;
  trace::ThreadId parent = trace::kNoThread;
  std::size_t sync_ops = 0;  ///< mutex/barrier/cond events (not lifecycle)
  /// No event's timestamp is below its predecessor's. Lookups by time
  /// (the stats' path-driven section visit) rely on it; a thread that
  /// regresses is handled by visiting all of its records instead.
  bool ts_ordered = true;

  std::uint64_t duration() const noexcept { return exit_ts - start_ts; }
};

/// Resumable forward scan of one thread's event stream — the per-thread
/// half of TraceIndex construction, exposed so the incremental analyzer
/// can extend a scan as events append and the bounded-RSS engine can
/// rescan one thread transiently.
///
/// consume() may be called repeatedly as the stream grows; it picks up at
/// next_index(). Pairing follows the thread's trace::ThreadProtocol: a
/// record lands in the public vectors when the automaton closes it, and
/// whatever is still open stays in the automaton. Callers drain the
/// vectors between consume() calls.
class ThreadScanState {
 public:
  ThreadInfo info;
  std::vector<std::pair<trace::ThreadId, EventRef>> creates;  ///< child, ref
  /// Closed sections per mutex. A mutex seen released gets a key even
  /// when nothing closed, so a mutex seen only released is still indexed.
  std::map<trace::ObjectId, std::vector<CsRecord>> sections;
  std::map<trace::ObjectId, std::vector<BarrierWaitRecord>> barrier_waits;
  std::map<trace::ObjectId, std::vector<CondWaitRecord>> cond_waits;
  std::map<trace::ObjectId, std::vector<CondSignalRecord>> signals;

  /// Index of the first event consume() has not seen yet.
  std::uint32_t next_index() const noexcept { return next_; }

  /// Scans events [next_index(), events.size()) of `tid`'s stream.
  void consume(const trace::EventsView& events, trace::ThreadId tid);

  /// Chunked variant: scans events [next_index(), limit) only, so callers
  /// that drain closed records between calls (the bounded-RSS engine) can
  /// keep the transient footprint at one chunk plus the open records.
  /// Thread exit facts track the last *consumed* event until the final
  /// call reaches events.size().
  void consume(const trace::EventsView& events, trace::ThreadId tid,
               std::uint32_t limit);

  /// Adds to `sections` a provisional copy of every section still held,
  /// released at the last consumed event (the thread's exit once the
  /// stream is consumed). The automaton keeps them open, so a section that
  /// closes for real in a later round replaces its copy.
  void close_held_sections(trace::ThreadId tid);

  /// The pairing state after the last consume.
  const trace::ThreadProtocol& protocol() const noexcept { return protocol_; }

  /// Earliest start timestamp (acquire/arrive/begin) among records still
  /// open after the last consume; ~0 if none. The incremental analyzer's
  /// re-resolution boundary needs it: a record that closes later can
  /// change resolutions from its start onwards.
  std::uint64_t earliest_open_ts() const noexcept {
    return protocol_.earliest_open_ts();
  }

 private:
  trace::ThreadProtocol protocol_;
  std::uint32_t next_ = 0;
  std::uint64_t last_ts_ = 0;  ///< timestamp of event next_ - 1
};

/// Per-primitive index over one trace.
///
/// The index consumes (and retains) a read-only TraceView, so it is
/// storage-agnostic: an in-memory Trace, an mmap()ed file, and decoded
/// v3 columns all index identically. Constructing from a Trace borrows
/// it — the trace must outlive the index, exactly as before.
///
/// Every constructor scans the trace and then runs extend() on an empty
/// index, so one-shot and live indexes share a single assembly path.
class TraceIndex {
 public:
  /// An empty index over no trace; extend() grows it.
  TraceIndex() = default;

  explicit TraceIndex(const trace::Trace& trace);
  /// The index keeps a view of the trace: temporaries are rejected.
  explicit TraceIndex(trace::Trace&&) = delete;

  explicit TraceIndex(const trace::TraceView& view);

  /// Pooled construction: the per-thread stream scans (the O(events) part)
  /// fan out across `pool`, then partial results merge in thread-id order
  /// so the index is bit-identical to sequential construction. A null pool
  /// (or a pool of size 1) runs everything inline.
  TraceIndex(const trace::Trace& trace, util::ThreadPool* pool);
  TraceIndex(trace::Trace&&, util::ThreadPool*) = delete;
  TraceIndex(const trace::TraceView& view, util::ThreadPool* pool);

  /// Extends the index in place to `view`, a grown version of the trace
  /// it covers, and drains `scans` (one per thread, caught up with `view`)
  /// down to their open records.
  ///
  /// Sections acquired before the earliest drained one are final and keep
  /// their positions; per mutex, only the tail from there on (retained
  /// records plus drained ones) is re-sorted, and provisional sections are
  /// replaced. Each MutexIndex's totals follow: the replaced provisional
  /// sections are subtracted and the drained ones added. In a live tail
  /// every drained section starts at or after the incremental analyzer's
  /// re-resolution boundary, so the cost is O(drained + tail + locks) for
  /// mutexes. Barrier and condvar records are still regrouped in full
  /// whenever they grow, the remaining O(history) term of a live refresh
  /// that uses them. The result is identical to constructing the index
  /// over `view` from scratch, even when a thread's timestamps regress
  /// (then at the cost of a full re-index of the section positions).
  void extend(const trace::TraceView& view, std::vector<ThreadScanState>& scans,
              util::ThreadPool* pool);

  /// The viewed trace this index was built over (valid while the view's
  /// backing store lives).
  const trace::TraceView& view() const noexcept { return view_; }

  const std::map<trace::ObjectId, MutexIndex>& mutexes() const noexcept {
    return mutexes_;
  }
  const std::map<trace::ObjectId, BarrierIndex>& barriers() const noexcept {
    return barriers_;
  }
  const std::map<trace::ObjectId, CondIndex>& conds() const noexcept {
    return conds_;
  }
  const std::vector<ThreadInfo>& threads() const noexcept { return threads_; }

  /// The ThreadCreate event in `parent` that spawned `child`; invalid if
  /// the trace does not record it.
  EventRef create_event(trace::ThreadId child) const;

  /// For a MutexAcquired event position, the index of its CsRecord within
  /// its mutex's `sections` (ownership order); npos32 if unknown.
  std::uint32_t section_of(trace::ThreadId tid, std::uint32_t acquired_idx) const;

  /// For a BarrierLeave event position, the index of its BarrierWaitRecord
  /// within its barrier's `waits`; npos32 if unknown.
  std::uint32_t barrier_wait_of(trace::ThreadId tid, std::uint32_t leave_idx) const;

  /// For a CondWaitEnd event position, the index of its CondWaitRecord
  /// within its condvar's `waits`; npos32 if unknown.
  std::uint32_t cond_wait_of(trace::ThreadId tid, std::uint32_t end_idx) const;

  /// The thread that finished last (maximum ThreadExit timestamp; ties
  /// break toward the lowest tid). The paper's walk starts there.
  trace::ThreadId last_finished_thread() const noexcept { return last_thread_; }

  /// Event index -> position in the owning primitive's record vector.
  struct Position {
    std::uint32_t idx = 0;
    std::uint32_t pos = 0;
  };

  /// `tid`'s critical sections in event order: each entry is a
  /// MutexAcquired index and the section's position in the sections of
  /// that event's mutex. Empty for a thread past the index.
  const std::vector<Position>& thread_sections(trace::ThreadId tid) const;

  /// An upper bound on the hold time of `tid`'s sections, provisional
  /// ones included (it never shrinks, so a section that was replaced may
  /// still widen it). A section of `tid` released after time T was
  /// therefore acquired after T - max_hold(tid). 0 past the index.
  std::uint64_t max_hold(trace::ThreadId tid) const noexcept {
    return tid < max_hold_.size() ? max_hold_[tid] : 0;
  }

  static constexpr std::uint32_t npos32 = ~static_cast<std::uint32_t>(0);

 private:
  /// One vector per thread, sorted by event index (lower_bound lookups).
  using PositionTable = std::vector<std::vector<Position>>;

  /// The mutex half of extend(): splices `added` into each mutex's tail.
  void extend_mutexes(std::map<trace::ObjectId, std::vector<CsRecord>> added,
                      util::ThreadPool* pool);

  trace::TraceView view_;
  std::map<trace::ObjectId, MutexIndex> mutexes_;
  std::map<trace::ObjectId, BarrierIndex> barriers_;
  std::map<trace::ObjectId, CondIndex> conds_;
  std::vector<ThreadInfo> threads_;
  std::map<trace::ThreadId, EventRef> creates_;
  PositionTable acquired_pos_;
  PositionTable leave_pos_;
  PositionTable cond_end_pos_;
  std::vector<std::uint64_t> max_hold_;
  trace::ThreadId last_thread_ = 0;
};

}  // namespace cla::analysis

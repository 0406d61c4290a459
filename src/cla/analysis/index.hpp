// Forward indexing of a trace by synchronization primitive.
//
// The critical-lock algorithm (paper Fig. 2) needs, for every blocking
// wake-up, "the segment that released me". This index precomputes the
// per-primitive structures that make that lookup O(log n):
//   - per-thread section tables, the one record of each critical
//     section, and per-mutex ownership orders of references into them
//     (the owner chain),
//   - per-barrier episodes with their last arriver,
//   - per-condvar signal lists and wait records,
//   - thread lifecycle (create/join/exit) relations.
// The index can also grow in place as a live trace appends (extend()),
// which is how the incremental analyzer keeps one index across rounds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cla/trace/protocol.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/mapped_allocator.hpp"

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

/// One execution of a critical section (MutexAcquire/Acquired/Released):
/// a row of its thread's SectionTable, the one place a closed section is
/// kept. The request time and the acquisition call-stack id are not
/// copied: they are the timestamp and arg of the MutexAcquire at
/// `acquire_idx` (TraceIndex::acquire_ts, TraceIndex::stack_id).
struct SectionRow {
  /// Bits of `flags`.
  static constexpr std::uint8_t kContended = 1;    ///< the request waited
  static constexpr std::uint8_t kHasStack = 2;     ///< MutexAcquire's arg is a stack id
  /// Still held at the end of the indexed stream, so released at the
  /// thread's last event for now; the next TraceIndex::extend() replaces
  /// the row in place.
  static constexpr std::uint8_t kProvisional = 4;

  std::uint64_t acquired_ts = 0;  ///< lock obtained
  std::uint64_t released_ts = 0;  ///< lock released
  std::uint32_t acquire_idx = 0;
  std::uint32_t acquired_idx = 0;
  std::uint32_t released_idx = 0;
  /// MutexIndex::slot of the section's mutex; set by TraceIndex::extend().
  std::uint32_t slot = 0;
  std::uint8_t flags = 0;

  bool contended() const noexcept { return (flags & kContended) != 0; }
  bool has_stack() const noexcept { return (flags & kHasStack) != 0; }
  bool provisional() const noexcept { return (flags & kProvisional) != 0; }
  std::uint64_t hold_time() const noexcept { return released_ts - acquired_ts; }
  /// Request to acquisition, `events` being the section's thread's.
  std::uint64_t wait_time(const trace::EventsView& events) const noexcept {
    return acquired_ts - events.ts_at(acquire_idx);
  }
  /// The acquisition call-stack id (the trace's CallStacks table); 0 when
  /// the trace carries no callsite capture.
  std::uint64_t stack_id(const trace::EventsView& events) const noexcept {
    return has_stack() ? events.arg_at(acquire_idx) : 0;
  }
};

/// One thread's critical sections in event order (acquired_idx
/// ascending).
using SectionTable = std::vector<SectionRow, util::MappedAllocator<SectionRow>>;

/// A section named by its thread and its row in that thread's table.
struct SectionRef {
  trace::ThreadId tid = 0;
  std::uint32_t row = 0;

  friend auto operator<=>(const SectionRef&, const SectionRef&) = default;
};

/// An entry of a mutex's ownership order: a section's reference, with its
/// acquired_ts beside it as the sort key so sorting and searching read the
/// order alone. (acquired_ts, tid, row) is the ownership order (acquired_ts,
/// tid, acquired_idx), since one thread's rows are in acquired_idx order.
struct OwnedSection {
  std::uint64_t acquired_ts = 0;
  SectionRef section;

  friend auto operator<=>(const OwnedSection&, const OwnedSection&) = default;
};

/// Integer sums over a set of critical sections — the inputs of the
/// paper's TYPE 2 statistics. Sums wrap modulo 2^64 exactly like a fresh
/// fold, so taking a section out and putting it back is exact.
struct SectionTotals {
  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
  std::uint64_t wait = 0;  ///< ns, summed request-to-acquired time
  std::uint64_t hold = 0;  ///< ns, summed SectionRow::hold_time()

  void add(const SectionRow& row, std::uint64_t wait_time) noexcept {
    ++invocations;
    contended += row.contended() ? 1 : 0;
    wait += wait_time;
    hold += row.hold_time();
  }
  void subtract(const SectionRow& row, std::uint64_t wait_time) noexcept {
    --invocations;
    contended -= row.contended() ? 1 : 0;
    wait -= wait_time;
    hold -= row.hold_time();
  }
  friend bool operator==(const SectionTotals&, const SectionTotals&) = default;
};

/// One thread's summed wait and hold time per mutex, index =
/// MutexIndex::slot: the per-thread inputs of the TYPE 2 averages, laid out
/// so that one pass over a thread's times serves every lock.
struct SlotTimes {
  std::vector<std::uint64_t> wait;
  std::vector<std::uint64_t> hold;

  void resize(std::size_t slots) {
    wait.resize(slots, 0);
    hold.resize(slots, 0);
  }
};

/// One mutex: its sections in ownership order, and running totals over
/// them. `order` holds the mutex's sections sorted by (acquired_ts, tid,
/// acquired_idx). order[k-1] released the lock that order[k] obtained —
/// the paper's "thread holding the same lock adjacently before the
/// blocked thread".
///
/// The totals are running sums kept by TraceIndex::extend(): it subtracts
/// a provisional row before replacing it and adds every row it puts in,
/// so compute_stats reads TYPE 2 figures without visiting any section.
/// The bounded-RSS engine fills the totals alone and keeps no `order`.
struct MutexIndex {
  trace::ObjectId id = trace::kNoObject;
  /// Dense number of this mutex, in order of first appearance and never
  /// reassigned (SectionRow::slot, SlotTimes). The bounded-RSS engine
  /// numbers its mutexes in the order its rescans first meet them.
  std::uint32_t slot = 0;
  std::vector<OwnedSection, util::MappedAllocator<OwnedSection>> order;
  SectionTotals totals;
  /// Totals per acquisition call stack (SectionRow::kHasStack). A stack id
  /// whose sections all left the index has no entry.
  std::map<std::uint64_t, SectionTotals> callsites;

  /// Adds `row`, a section of thread events.tid(), to the running totals
  /// (not to `order`), its wait and hold time to that thread's `times`,
  /// which must already cover `slot`.
  void count(const SectionRow& row, const trace::EventsView& events,
             SlotTimes& times);
  /// Takes `row`, counted earlier, back out of the running totals.
  void uncount(const SectionRow& row, const trace::EventsView& events,
               SlotTimes& times);
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
  /// Closed sections, in event order (acquired_idx ascending), with no
  /// mutex slot yet: a row's mutex is the object of its MutexAcquired.
  /// Consumers drain the rows in place.
  SectionTable sections;
  /// Mutexes released with no section to close (a protocol violation). A
  /// mutex seen only that way is still indexed, with no sections.
  std::vector<trace::ObjectId> stray_releases;
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

  /// Adds to `sections` a provisional row for every section still held,
  /// released at the last consumed event (the thread's exit once the
  /// stream is consumed). The automaton keeps them open, so a section that
  /// closes for real in a later round replaces its row.
  void close_held_sections();

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
  /// Movable, not copyable: slots point into the index's own mutex map.
  TraceIndex(const TraceIndex&) = delete;
  TraceIndex& operator=(const TraceIndex&) = delete;
  TraceIndex(TraceIndex&&) = default;
  TraceIndex& operator=(TraceIndex&&) = default;

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
  /// A drained row either replaces the provisional row of a section still
  /// held at the last extend (same acquired_idx and place in the order) or
  /// was acquired after every row of its thread's table and is appended;
  /// the totals subtract a replaced row and add every drained one. Each
  /// mutex sorts its new references and merges them into its order, so a
  /// live tail costs O(drained + merged tail + locks) for mutexes. Barrier
  /// and condvar records are still regrouped in full whenever they grow.
  /// The result is identical to constructing the index over `view` from
  /// scratch, even when a thread's timestamps regress.
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

  /// For a MutexAcquired event position, the row of its section in the
  /// thread's table; npos32 if unknown. A binary search of the table.
  std::uint32_t row_of(trace::ThreadId tid, std::uint32_t acquired_idx) const;

  /// The section just before `section` in its mutex's ownership order:
  /// the one that released the lock to it. Null for the mutex's first
  /// section. A binary search of the order.
  std::optional<SectionRef> previous_owner(SectionRef section) const;

  /// For a BarrierLeave event position, the index of its BarrierWaitRecord
  /// within its barrier's `waits`; npos32 if unknown.
  std::uint32_t barrier_wait_of(trace::ThreadId tid, std::uint32_t leave_idx) const;

  /// For a CondWaitEnd event position, the index of its CondWaitRecord
  /// within its condvar's `waits`; npos32 if unknown.
  std::uint32_t cond_wait_of(trace::ThreadId tid, std::uint32_t end_idx) const;

  /// The thread that finished last (maximum ThreadExit timestamp; ties
  /// break toward the lowest tid). The paper's walk starts there.
  trace::ThreadId last_finished_thread() const noexcept { return last_thread_; }

  /// `tid`'s critical sections in event order; empty for a thread past
  /// the index. A refresh's TYPE 1 pass reads a near-path section's times,
  /// slot and flags here, in one row, without touching the event stream.
  const SectionTable& thread_sections(trace::ThreadId tid) const;

  const SectionRow& row(SectionRef section) const noexcept {
    return sections_[section.tid][section.row];
  }
  /// When `section` requested its mutex: its MutexAcquire's timestamp.
  std::uint64_t acquire_ts(SectionRef section) const {
    return view_.thread_events(section.tid).ts_at(row(section).acquire_idx);
  }

  /// How many mutexes have a slot (MutexIndex::slot, SectionRow::slot),
  /// i.e. mutexes().size().
  std::size_t slot_count() const noexcept { return slots_.size(); }
  /// The mutexes by slot.
  std::span<const MutexIndex* const> slots() const noexcept { return slots_; }
  /// Per thread (index = tid), its wait and hold time by mutex slot, each
  /// sized to slot_count().
  const std::vector<SlotTimes>& slot_times() const noexcept {
    return slot_times_;
  }

  /// An upper bound on the hold time of `tid`'s sections, provisional
  /// ones included (it never shrinks, so a section that was replaced may
  /// still widen it). A section of `tid` released after time T was
  /// therefore acquired after T - max_hold(tid). 0 past the index.
  std::uint64_t max_hold(trace::ThreadId tid) const noexcept {
    return tid < max_hold_.size() ? max_hold_[tid] : 0;
  }

  static constexpr std::uint32_t npos32 = ~static_cast<std::uint32_t>(0);

 private:
  /// BarrierLeave / CondWaitEnd event index -> position of its wait
  /// record in the primitive's `waits`.
  struct WaitPosition {
    std::uint32_t idx = 0;
    std::uint32_t pos = 0;
  };
  /// One vector per thread, sorted by event index (lower_bound lookups).
  using WaitPositions = std::vector<std::vector<WaitPosition>>;

  /// The mutex half of extend(): drains the scans' rows into the section
  /// tables, the totals and each mutex's order.
  void extend_mutexes(std::vector<ThreadScanState>& scans,
                      util::ThreadPool* pool);
  /// The slot of `mutex`, which gets a MutexIndex if it has none yet.
  std::uint32_t slot_for(trace::ObjectId mutex);

  trace::TraceView view_;
  std::map<trace::ObjectId, MutexIndex> mutexes_;
  std::map<trace::ObjectId, BarrierIndex> barriers_;
  std::map<trace::ObjectId, CondIndex> conds_;
  std::vector<ThreadInfo> threads_;
  std::map<trace::ThreadId, EventRef> creates_;
  std::vector<MutexIndex*> slots_;  ///< by slot; the map's nodes are stable
  /// By slot: the length of the mutex's order, all of it sorted, when the
  /// running extend began; equal to order.size() between extends.
  std::vector<std::size_t> sorted_;
  std::vector<SlotTimes> slot_times_;  ///< by thread
  std::unordered_map<trace::ObjectId, std::uint32_t> slot_of_;
  std::vector<SectionTable> sections_;  ///< by thread
  WaitPositions leave_pos_;
  WaitPositions cond_end_pos_;
  std::vector<std::uint64_t> max_hold_;
  trace::ThreadId last_thread_ = 0;
};

}  // namespace cla::analysis

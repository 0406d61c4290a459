// Quantitative performance metrics (paper §III.B and Table 2).
//
// TYPE 1 — new, measured along the critical path:
//   CP Time %          fraction of critical-path time spent inside the hot
//                      critical sections protected by the lock
//   Invocation # on CP number of the lock's critical sections on the path
//   Cont. Prob. on CP  fraction of those invocations that were contended
//
// TYPE 2 — prior-work statistics, averaged per thread:
//   Wait Time %        avg fraction of a thread's time spent waiting
//   Avg. Invo. #       avg invocations of the lock per thread
//   Avg. Cont. Prob %  contended / total invocations
//   Avg. Hold Time %   avg fraction of a thread's time inside the lock's
//                      critical sections
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"

namespace cla::analysis {

/// Per-lock statistics, both families.
struct LockStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;

  // --- TYPE 1 (on the critical path) ---
  std::uint64_t cp_hold_time = 0;     ///< ns of hot-CS execution on the path
  std::uint64_t cp_invocations = 0;   ///< "Invocation # on CP"
  std::uint64_t cp_contended = 0;
  double cp_time_fraction = 0.0;      ///< "CP Time %" (0..1)
  double cp_contention_prob = 0.0;    ///< "Cont. Prob. on CP %" (0..1)

  // --- TYPE 2 (per-lock, averaged per thread) ---
  std::uint64_t invocations = 0;      ///< total across all threads
  std::uint64_t contended = 0;
  std::uint64_t total_wait = 0;       ///< ns, summed across threads
  std::uint64_t total_hold = 0;       ///< ns, summed across threads
  double avg_wait_fraction = 0.0;     ///< "Wait Time %" (0..1)
  double avg_hold_fraction = 0.0;     ///< "Avg. Hold Time %" (0..1)
  double avg_invocations = 0.0;       ///< "Avg. Invo. #"
  double avg_contention_prob = 0.0;   ///< "Avg. Cont. Prob %" (0..1)

  // --- derived ("Incr. Times ..." columns of Figs. 10/11/13/14) ---
  double invocation_increase = 0.0;   ///< cp_invocations / avg_invocations
  double hold_increase = 0.0;         ///< cp_time_fraction / avg_hold_fraction

  /// A lock is critical iff any of its critical sections lies on the path.
  bool is_critical() const noexcept { return cp_invocations > 0; }
};

/// Per-(lock, acquisition callsite) statistics. Populated only when the
/// trace carries callsite capture (SectionRow::kHasStack); traces
/// recorded with CLA_STACK_DEPTH=0 — and every pre-callsite trace —
/// produce an empty vector.
struct CallsiteStats {
  trace::ObjectId lock_id = trace::kNoObject;
  std::string lock_name;
  std::uint64_t stack_id = 0;  ///< key into TraceView::call_stacks()

  std::uint64_t cp_hold_time = 0;    ///< ns of hot-CS execution on the path
  std::uint64_t cp_invocations = 0;
  std::uint64_t cp_contended = 0;
  double cp_time_fraction = 0.0;     ///< cp_hold_time / path length (0..1)

  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
  std::uint64_t total_wait = 0;      ///< ns, summed across threads
  std::uint64_t total_hold = 0;      ///< ns, summed across threads

  /// Symbolized acquisition frames, innermost first. Resolved from the
  /// trace's FrameSymbols table when the recording process symbolized at
  /// close; raw "0x..." program counters otherwise (e.g. crash spills).
  std::vector<std::string> frames;
};

/// Per-barrier statistics (extension; the paper reports locks only).
struct BarrierStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;
  std::uint64_t episodes = 0;
  std::uint64_t waits = 0;
  std::uint64_t total_wait_time = 0;
  double avg_wait_fraction = 0.0;   ///< avg fraction of thread time waiting
  std::uint64_t cp_jumps = 0;       ///< times the path crossed this barrier
};

/// Per-condvar statistics (extension).
struct CondStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;
  std::uint64_t waits = 0;
  std::uint64_t signals = 0;
  std::uint64_t total_wait_time = 0;
  std::uint64_t cp_jumps = 0;
};

/// Per-thread summary.
struct ThreadStats {
  trace::ThreadId tid = 0;
  std::string name;
  std::uint64_t duration = 0;
  std::uint64_t cp_time = 0;        ///< time this thread spends on the path
  std::uint64_t lock_wait_time = 0;
  std::uint64_t lock_hold_time = 0;
  std::uint64_t sync_ops = 0;
};

/// Options controlling metric aggregation.
struct StatsOptions {
  /// When true (default), per-thread TYPE 2 averages are taken over the
  /// threads that performed at least one synchronization operation; pure
  /// coordinator threads (spawn + join only) would otherwise dilute them.
  bool worker_threads_only = true;
};

/// Complete analysis output.
struct AnalysisResult {
  CriticalPath path;
  std::vector<LockStats> locks;       ///< sorted by cp_hold_time descending
  /// Per-(lock, callsite) breakdown, sorted by cp_hold_time descending;
  /// empty unless the trace carries acquisition call stacks.
  std::vector<CallsiteStats> callsites;
  std::vector<BarrierStats> barriers;
  std::vector<CondStats> conds;
  std::vector<ThreadStats> threads;
  std::uint64_t completion_time = 0;  ///< == path.length()
  std::size_t worker_threads = 0;     ///< denominator of TYPE 2 averages

  /// Lookup by display name; nullptr if absent.
  const LockStats* find_lock(const std::string& name) const;
};

/// Integer sums over the critical sections that overlap the path — the
/// inputs of the TYPE 1 statistics.
struct PathTotals {
  std::uint64_t hold = 0;  ///< ns of the sections' overlap with the path
  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
};

/// One mutex's on-path totals, whole and per acquisition call stack.
struct LockPathTotals {
  PathTotals lock;
  std::map<std::uint64_t, PathTotals> callsites;  ///< by stack id (!= 0)

  /// Counts a section (its contended flag and stack id, 0 = none) if it
  /// overlaps the path by `on_path` > 0 ns.
  void add(std::uint64_t on_path, bool contended, std::uint64_t stack_id);
  /// Takes back an add() of the same figures; a callsite whose last
  /// section goes is erased, as if it had never been added.
  void remove(std::uint64_t on_path, bool contended, std::uint64_t stack_id);
};

/// The integer totals every figure of an AnalysisResult derives from.
/// compute_stats points these at a TraceIndex; the bounded-RSS engine
/// fills its own from per-thread rescans (a MutexIndex with an empty
/// `order`, barriers and condvars with their totals alone).
struct StatsInputs {
  const std::vector<ThreadInfo>& threads;  ///< index = tid
  std::span<const MutexIndex* const> mutexes;  ///< index = MutexIndex::slot
  std::span<const LockPathTotals> on_path;     ///< index = slot
  /// Index = tid; each thread's times cover every slot.
  const std::vector<SlotTimes>& slot_times;
  /// Read for their totals alone.
  const std::map<trace::ObjectId, BarrierIndex>& barriers;
  const std::map<trace::ObjectId, CondIndex>& conds;
};

/// The lock rows of the Table 2 figures, with what stays between
/// refreshes: each lock's display name, the rank of that name among all
/// of them (equal names, equal ranks), and the rows in the last ranking's
/// order. assemble_stats rewrites every row's figures in place, moves only
/// the rows whose rank changed, and looks names up, and ranks them, only
/// in a fresh table, when a mutex appears, or after forget_names(). The
/// batch engines assemble into a fresh table; a live analyzer keeps one
/// and hands each result's `locks` back before the next refresh.
class LockTable {
 public:
  /// The trace's name tables changed: look every name up again.
  void forget_names() noexcept { stale_names_ = true; }

  /// Takes back the `locks` of the last result assembled with this table.
  /// Without them, the next assembly starts the rows afresh.
  void take_back(std::vector<LockStats>&& locks);

 private:
  friend AnalysisResult assemble_stats(const trace::TraceView& view,
                                       const StatsInputs& inputs,
                                       CriticalPath path,
                                       const StatsOptions& options,
                                       LockTable& table);

  /// Gives every slot of `mutexes` a row that carries its id and current
  /// display name, and ranks the names if any was looked up: then it
  /// returns true.
  bool name_rows(const trace::TraceView& view,
                 std::span<const MutexIndex* const> mutexes);

  std::vector<LockStats> rows_;           ///< in the last ranking's order
  std::vector<std::uint32_t> slot_at_;    ///< the slot of each row
  std::vector<std::uint32_t> name_rank_;  ///< by slot
  bool stale_names_ = false;
  bool lent_ = false;  ///< rows_ went to a result and did not come back
};

/// Turns the totals plus the walked path into the Table 2 figures: the
/// per-thread averages, the ratios, the rankings, callsite frames and the
/// path's barrier/condvar crossings. The only place those figures are
/// computed, so every engine's floating-point sums run in one order; each
/// lock's TYPE 2 averages sum over the threads in tid order. Locks rank by
/// (cp_hold_time desc, total_wait desc, name, lock id), callsites by
/// (cp_hold_time desc, total_wait desc, lock name, stack id, lock id),
/// sorting integer keys (the names by their rank in `table`).
/// Cost: O(locks × threads) for the averages and O(locks + m log m) for
/// the ranking, m being the locks whose hold or wait changed since the
/// table's last assembly (all of them in a fresh table), plus looking up
/// and ranking the names when `table` has to.
AnalysisResult assemble_stats(const trace::TraceView& view,
                              const StatsInputs& inputs, CriticalPath path,
                              const StatsOptions& options, LockTable& table);

/// The TYPE 1 sums: per mutex slot, the on-path totals of the sections
/// that overlap the path, plus per thread the list of those sections
/// (row and overlap), so that a live analyzer can bring
/// the sums from one refresh's path to the next by revisiting only what
/// may have changed. A fresh PathSums holds the sums of an empty path.
class PathSums {
 public:
  /// Brings the sums to `path` over `index`. Since the last update, the
  /// index may have grown by TraceIndex::extend(), with every row acquired
  /// before `boundary` (0 = none) unchanged, and each thread's merged path
  /// intervals may have changed from changed_from[tid] on (a missing
  /// entry counts as 0). Per thread whose timestamps are ordered, the
  /// sections acquired before min(changed_from, boundary) - max_hold(tid)
  /// ended before that instant, so they keep their figures; the visits
  /// from there on are subtracted and those sections revisited: per path
  /// interval, the ones acquired after its begin minus max_hold, each
  /// once, measured by an OverlapCursor. A thread whose timestamps regress
  /// is revisited in full and measured with CriticalPath::overlap. The
  /// sums are integers, so subtracting is exact and the visit order
  /// cannot change a figure.
  void update(const TraceIndex& index, const CriticalPath& path,
              const std::vector<std::uint64_t>& changed_from,
              std::uint64_t boundary);

  /// Index = MutexIndex::slot.
  const std::vector<LockPathTotals>& by_slot() const noexcept {
    return by_slot_;
  }

 private:
  friend AnalysisResult compute_stats(const TraceIndex&, CriticalPath,
                                      const StatsOptions&);

  /// A section that overlaps the path, and its overlap. Its slot,
  /// contended flag and stack id are read back from the row: a row keeps
  /// its index, and a provisional row that TraceIndex::extend() replaces
  /// keeps its section's MutexAcquire, so those never change.
  struct Visit {
    std::uint64_t on_path = 0;
    std::uint32_t row = 0;
  };

  std::vector<std::vector<Visit>> visits_;  ///< per thread, row order
  std::vector<LockPathTotals> by_slot_;
  /// False for a batch pass's sums, which no later update reads: the
  /// visits then go unlisted.
  bool keep_ = true;
};

/// Computes all statistics for a trace whose path was already walked,
/// taking the TYPE 1 sums from `sums`, brought to `path` by
/// PathSums::update, and assembling the lock rows in `table`.
///
/// Cost: O((locks + barriers) × threads + condvars) on top of the update,
/// independent of how many sections lie off the path. TYPE 2 figures come
/// from the index's running MutexIndex totals and SlotTimes, read in
/// place, as are the barrier and condvar totals.
AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const PathSums& sums, LockTable& table,
                             const StatsOptions& options = {});

/// compute_stats with the sums of a fresh PathSums updated to `path` and a
/// fresh LockTable: the TYPE 1 pass visits, per thread, only the sections
/// whose time window can overlap one of the thread's path intervals (see
/// TraceIndex::max_hold), each once, reading the section's row (and its
/// MutexAcquire's arg only for a section with a call stack). The sums
/// list no visits: nothing updates them again. Cost: O(path + near-path
/// sections) on top of the above.
AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options = {});

}  // namespace cla::analysis

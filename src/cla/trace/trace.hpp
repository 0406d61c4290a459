// In-memory trace container: per-thread event streams plus name tables.
//
// This is the hand-off point of the paper's two-stage workflow (Fig. 3):
// the instrumentation module (or the simulator) produces a Trace, the
// analysis module consumes it.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cla/trace/event.hpp"
#include "cla/util/grow_array.hpp"

namespace cla::trace {

/// Everything a trace carries besides its event streams: the name,
/// call-stack and frame-symbol tables, the producing runtime's warning
/// counters and its dropped-event count. Trace, MappedTrace and every
/// `.clat` reader hold exactly this value, so a table kind can never be
/// carried by one path and lost by another.
struct TraceTables {
  std::map<ObjectId, std::string> object_names;
  std::map<ThreadId, std::string> thread_names;
  /// Acquisition call stacks: stack id -> return-address chain.
  std::map<std::uint64_t, std::vector<std::uint64_t>> call_stacks;
  /// Program counter -> "symbol+0xoff (module)".
  std::map<std::uint64_t, std::string> frame_symbols;
  /// Stable cla::util::DiagCode value (CLA_W_*) -> count/value.
  std::map<std::uint32_t, std::uint64_t> runtime_warnings;
  std::uint64_t dropped_events = 0;

  /// True when no table holds an entry and nothing was dropped.
  bool empty() const noexcept;

  /// Last-write-wins merge of `other`'s five maps into these (entries of
  /// `other` replace equal keys). dropped_events is left alone: each
  /// caller has its own rule for it. Returns true when any entry changed.
  bool merge(const TraceTables& other);

  friend bool operator==(const TraceTables&, const TraceTables&) = default;
};

/// A complete execution trace of one program run.
///
/// Invariants (checked by validate()):
///  - events of each thread are sorted by timestamp (stable, non-strict);
///  - thread 0 exists and every thread has a ThreadStart as its first and
///    a ThreadExit as its last event;
///  - mutex events per (thread, mutex) follow Acquire -> Acquired ->
///    Released cycles; barrier events alternate Arrive/Leave.
class Trace {
 public:
  Trace() = default;

  /// Appends an event to its thread's stream. Events must arrive in
  /// non-decreasing timestamp order per thread (enforced by validate()).
  void add(const Event& event);

  /// Appends a whole per-thread stream, sorted by timestamp; a thread that
  /// already had events is re-sorted (stable) by timestamp.
  void add_thread_stream(ThreadId tid, std::vector<Event> events);

  /// Appends a chunk to a thread's stream without re-sorting; chunks must
  /// arrive in timestamp order (the on-disk order of a thread's event
  /// chunks). Used by the incremental analyzer to accumulate live deltas.
  void append_thread_events(ThreadId tid, std::span<const Event> events);

  /// `tid`'s stream, added empty if the trace has none yet, for a producer
  /// that builds it in place (repair, clip, salvage, the live tailer,
  /// materialize()) instead of handing over a copy. It must end sorted by
  /// timestamp.
  util::GrowArray<Event>& thread_stream(ThreadId tid);

  std::size_t thread_count() const noexcept { return threads_.size(); }
  std::span<const Event> thread_events(ThreadId tid) const;

  /// Total number of events across all threads.
  std::size_t event_count() const noexcept;

  /// Earliest / latest timestamp in the trace; 0 if empty.
  std::uint64_t start_ts() const noexcept;
  std::uint64_t end_ts() const noexcept;

  /// Attaches a human-readable name to a synchronization object (mutex,
  /// barrier, condvar). Anonymous objects render as "mutex@<id>" etc.
  void set_object_name(ObjectId object, std::string name) {
    tables_.object_names[object] = std::move(name);
  }
  const std::string* object_name(ObjectId object) const;

  /// Name lookup that falls back to `<prefix>@<id>`.
  std::string object_display_name(ObjectId object, std::string_view prefix) const;

  void set_thread_name(ThreadId tid, std::string name) {
    tables_.thread_names[tid] = std::move(name);
  }
  std::string thread_display_name(ThreadId tid) const;

  /// Events the producing runtime had to drop at record time (buffer
  /// overrun, recording after teardown). Carried in the `.clat` v2 meta
  /// chunk so the analyzer can report incomplete coverage.
  void set_dropped_events(std::uint64_t count) noexcept {
    tables_.dropped_events = count;
  }
  std::uint64_t dropped_events() const noexcept {
    return tables_.dropped_events;
  }

  /// Runtime warnings the producing process recorded in the `.clat`
  /// RuntimeWarnings chunk: stable cla::util::DiagCode value (CLA_W_*) ->
  /// count/value. The analyzer surfaces them in its trace-health section.
  void set_runtime_warning(std::uint32_t code, std::uint64_t value) {
    tables_.runtime_warnings[code] = value;
  }
  const std::map<std::uint32_t, std::uint64_t>& runtime_warnings()
      const noexcept {
    return tables_.runtime_warnings;
  }

  const std::map<ObjectId, std::string>& object_names() const noexcept {
    return tables_.object_names;
  }
  const std::map<ThreadId, std::string>& thread_names() const noexcept {
    return tables_.thread_names;
  }

  /// Acquisition call-stack table (`.clat` CallStacks chunk): stack id ->
  /// return-address chain, outermost frame last. Ids start at 1; id 0 (and
  /// kNoArg) mean "no stack recorded". MutexAcquire events carry the id of
  /// the acquiring callsite in their `arg` field when capture was enabled.
  void set_call_stack(std::uint64_t id, std::vector<std::uint64_t> pcs) {
    tables_.call_stacks[id] = std::move(pcs);
  }
  const std::vector<std::uint64_t>* call_stack(std::uint64_t id) const {
    auto it = tables_.call_stacks.find(id);
    return it == tables_.call_stacks.end() ? nullptr : &it->second;
  }
  const std::map<std::uint64_t, std::vector<std::uint64_t>>& call_stacks()
      const noexcept {
    return tables_.call_stacks;
  }

  /// Frame-symbol table (`.clat` FrameSymbols chunk): program counter ->
  /// "symbol+0xoff (module)" string resolved by the *recording* process
  /// (dladdr at clean shutdown). Carried in the trace because raw PCs are
  /// meaningless in any other process's address space.
  void set_frame_symbol(std::uint64_t pc, std::string name) {
    tables_.frame_symbols[pc] = std::move(name);
  }
  const std::map<std::uint64_t, std::string>& frame_symbols() const noexcept {
    return tables_.frame_symbols;
  }

  /// All non-event tables as one value (copy, compare or merge them whole).
  const TraceTables& tables() const noexcept { return tables_; }
  TraceTables& tables() noexcept { return tables_; }

  /// Checks the structural invariants above; throws
  /// cla::util::ValidationError summarising the violations. A thin wrapper
  /// over validate_trace(TraceView(*this), ...) (cla/trace/validate.hpp),
  /// the pipeline's own check, which reports every violation as a
  /// structured diagnostic instead of stopping at the first. Like every
  /// reader it takes an event's thread from its stream, not its stored tid.
  void validate() const;

  /// Renders a human-readable dump (debugging aid; O(events) big).
  std::string dump() const;

 private:
  std::vector<util::GrowArray<Event>> threads_;
  TraceTables tables_;
};

}  // namespace cla::trace

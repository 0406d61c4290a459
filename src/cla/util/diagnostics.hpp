// Structured diagnostics for the analysis side.
//
// Instead of throwing on the first malformed event, the hardened
// validator/repair path reports every violation as a Diagnostic — a
// severity, a stable machine-readable code, a location (thread, event
// index) and a human-readable message — collected in a DiagnosticSink.
// Consumers decide what to do with them per the Strictness policy:
// strict mode turns error-severity diagnostics into a ValidationError,
// repair/lenient modes fix the trace and record what they did as further
// (info-severity) diagnostics, so a report can print a "trace health"
// section and flag the results approximate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cla::util {

/// How the analysis reacts to semantic violations in a trace.
enum class Strictness : std::uint8_t {
  Strict,   ///< error diagnostics abort the analysis (historic behaviour)
  Repair,   ///< apply deterministic fixes, analyze, flag approximate
  Lenient,  ///< additionally drop irreparable threads and keep going
};

std::string_view to_string(Strictness mode) noexcept;

/// Parses "strict" / "repair" / "lenient"; returns false on anything else.
bool parse_strictness(std::string_view text, Strictness& out) noexcept;

enum class Severity : std::uint8_t {
  Info,     ///< repair actions and notes; the results remain usable
  Warning,  ///< suspicious but analyzable as-is (tolerated by strict mode)
  Error,    ///< protocol violation; strict mode refuses, repair mode fixes
  Fatal,    ///< irreparable (e.g. no events at all); every mode refuses
};

std::string_view to_string(Severity severity) noexcept;

/// Stable diagnostic codes. `CLA_E_*` are validator findings, `CLA_W_*`
/// tolerated oddities, `CLA_R_*` repair actions. The names are part of
/// the tool's output contract (README troubleshooting table, JSON
/// diagnostics) — never renumber or rename, only append.
enum class DiagCode : std::uint16_t {
  // --- fatal ---
  CLA_E_NO_THREADS = 1,        ///< trace holds no threads / no events

  // --- error-severity semantic violations ---
  CLA_E_EMPTY_THREAD = 10,     ///< thread has no events at all
  CLA_E_NO_THREAD_START = 11,  ///< first event is not ThreadStart
  CLA_E_STRAY_THREAD_START = 12,  ///< ThreadStart not at stream head
  CLA_E_DANGLING_THREAD = 13,  ///< last event is not ThreadExit
  CLA_E_STRAY_THREAD_EXIT = 14,   ///< ThreadExit before the stream end
  CLA_E_TID_MISMATCH = 15,     ///< retired: no check reads a stored tid
  CLA_E_TS_REGRESSION = 16,    ///< per-thread timestamps go backwards
  CLA_E_DOUBLE_ACQUIRE = 17,   ///< MutexAcquire while already acquiring
  CLA_E_UNPAIRED_ACQUIRED = 18,  ///< MutexAcquired without MutexAcquire
  CLA_E_UNPAIRED_UNLOCK = 19,  ///< MutexReleased without holding the lock
  CLA_E_BARRIER_REENTER = 20,  ///< BarrierArrive while inside the barrier
  CLA_E_UNPAIRED_BARRIER_LEAVE = 21,  ///< BarrierLeave without Arrive

  // --- warning-severity oddities (strict mode tolerates these) ---
  CLA_W_NESTED_COND_WAIT = 40,    ///< CondWaitBegin while a wait is open
  CLA_W_UNPAIRED_WAIT_END = 41,   ///< CondWaitEnd without matching Begin
  CLA_W_OPEN_WAIT_AT_EXIT = 42,   ///< thread ended inside a cond wait
  CLA_W_LOCK_HELD_AT_EXIT = 43,   ///< thread ended holding a mutex
  CLA_W_ACQUIRE_PENDING_AT_EXIT = 44,  ///< ended blocked in an acquire
  CLA_W_OPEN_BARRIER_AT_EXIT = 45,     ///< ended between Arrive and Leave
  CLA_W_UNKNOWN_THREAD_REF = 46,  ///< create/join references no known tid

  // --- runtime warnings (carried in the .clat RuntimeWarnings chunk) ---
  CLA_W_IO_RETRIED = 47,          ///< trace writes retried after errors
  CLA_W_IO_DROPPED_EVENTS = 48,   ///< events lost to failed trace writes
  CLA_W_PARTIAL_INTERPOSITION = 49,  ///< interposed calls hit unresolved
                                     ///< symbols (tracing is partial)
  CLA_W_FORKED_CHILD = 50,        ///< process forked; children wrote their
                                  ///< own trace.clat.<pid> files
  CLA_W_RING_RETIRED_EVENTS = 51,  ///< ring retention retired old chunks;
                                   ///< their events count as loss
  CLA_W_TRACE_ROTATED = 52,       ///< live trace rotated under the reader;
                                  ///< analysis restarted from the new file
  CLA_W_ANALYSIS_WINDOW_SHED = 53,  ///< monitor shed its analysis window
                                    ///< after a resource-budget breach
  CLA_W_READ_RETRIED = 54,        ///< trace reads retried after errors
  CLA_W_RING_COMPACTION_NOOP = 55,  ///< ring over its cap but no complete
                                    ///< event chunk was retirable; the
                                    ///< compaction no-op'd (file temporarily
                                    ///< exceeds the ring bound)

  // --- aggregation store (cla::agg, carried in its StoreMeta record) ---
  CLA_W_AGG_TRUNCATED_TAIL = 56,  ///< torn final record truncated by the
                                  ///< recovery scan; counted loss
  CLA_W_AGG_SKIPPED_BYTES = 57,   ///< corrupt mid-file bytes resynced over
  CLA_W_AGG_APPEND_FAILED = 58,   ///< appends abandoned after the retry
                                  ///< budget (ENOSPC...); counted loss
  CLA_W_AGG_META_RESET = 59,      ///< StoreMeta record unreadable; loss
                                  ///< counters restarted from zero

  // --- repair actions (info severity) ---
  CLA_R_SYNTHESIZED_EVENTS = 60,  ///< missing unlocks/exits/... synthesized
  CLA_R_DROPPED_EVENTS = 61,      ///< orphan events discarded
  CLA_R_CLAMPED_TIMESTAMPS = 62,  ///< non-monotone timestamps clamped
  CLA_R_STUBBED_THREAD = 63,      ///< referenced-but-lost thread stubbed
  CLA_R_DROPPED_THREAD = 64,      ///< lenient: irreparable thread dropped

  // --- resource guards ---
  CLA_E_DEADLINE_EXCEEDED = 80,   ///< analysis ran past its deadline
  CLA_E_EVENT_BUDGET_EXCEEDED = 81,  ///< trace larger than --max-events

  // --- trace I/O failures (the file itself, not its contents) ---
  CLA_E_TRACE_IO = 82,            ///< trace unreadable: ENOENT/EACCES/EIO
                                  ///< on open, stat, mmap, or read
};

/// Stable code name ("CLA_E_UNPAIRED_UNLOCK") as printed in reports.
std::string_view to_string(DiagCode code) noexcept;

/// One structured finding about a trace.
struct Diagnostic {
  Severity severity = Severity::Info;
  DiagCode code = DiagCode::CLA_E_NO_THREADS;
  std::uint32_t tid = kNoTid;      ///< affected thread; kNoTid if global
  std::uint64_t event = kNoEvent;  ///< event index within the thread
  std::string message;

  static constexpr std::uint32_t kNoTid = ~static_cast<std::uint32_t>(0);
  static constexpr std::uint64_t kNoEvent = ~static_cast<std::uint64_t>(0);

  /// "[error] CLA_E_UNPAIRED_UNLOCK T1 event 12: ..." (one line).
  std::string to_string() const;
};

/// Ordered collector of diagnostics. Appends are deterministic (the
/// validator and repair engine iterate threads and events in order), so
/// the sink's contents — including its JSON rendering — are reproducible
/// byte for byte. A cap bounds memory on hostile traces: diagnostics past
/// the cap are counted (suppressed()) but not stored.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t cap = 10000) : cap_(cap) {}

  void report(Diagnostic diagnostic);
  void report(Severity severity, DiagCode code, std::uint32_t tid,
              std::uint64_t event, std::string message);

  const std::vector<Diagnostic>& diagnostics() const noexcept { return diagnostics_; }
  bool empty() const noexcept { return diagnostics_.empty() && suppressed_ == 0; }
  void clear() noexcept;

  std::uint64_t count(Severity severity) const noexcept;
  /// Error + Fatal (what strict mode refuses on).
  std::uint64_t error_count() const noexcept;
  std::uint64_t fatal_count() const noexcept { return count(Severity::Fatal); }
  std::uint64_t suppressed() const noexcept { return suppressed_; }

  /// First stored diagnostic at or above `severity`; nullptr if none.
  const Diagnostic* first_at_least(Severity severity) const noexcept;

  /// Multi-line human-readable rendering (at most `max_lines` diagnostics
  /// plus a summary line; 0 = all).
  std::string to_string(std::size_t max_lines = 0) const;

  /// Machine-readable rendering:
  /// {"counts": {...}, "suppressed": N, "diagnostics": [...]}
  std::string to_json() const;

 private:
  std::size_t cap_;
  std::uint64_t counts_[4] = {0, 0, 0, 0};
  std::uint64_t suppressed_ = 0;
  std::vector<Diagnostic> diagnostics_;
};

/// Appends `text` to `out` as a quoted JSON string: `"` and `\\` are
/// escaped, \n \r \t get their short escapes and every other control
/// character becomes \u00XX. The one escaper behind every JSON writer
/// (reports, HTML payload, monitor, agg).
void append_json_string(std::string& out, std::string_view text);

/// append_json_string into a fresh string, for stream writers.
std::string json_quoted(std::string_view text);

}  // namespace cla::util

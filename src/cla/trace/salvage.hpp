// Trace salvage: recover an analyzable trace from a torn `.clat` file.
//
// A recording that died mid-run (segfault, SIGKILL, disk full, torn
// final write) leaves a file the strict reader rejects. salvage_trace()
// instead keeps every chunk (v2) or complete record prefix (v1) that is
// still intact, drops the torn tail — resynchronising on the chunk magic
// past in-file corruption — and then repairs the recovered stream until
// Trace::validate() passes:
//
//   - per-thread timestamps are clamped monotone;
//   - a missing leading ThreadStart is synthesized at the first event;
//   - dangling critical sections (lock held, acquire pending, inside a
//     barrier at the point of death) are closed at the thread's
//     last-seen timestamp;
//   - a missing trailing ThreadExit is synthesized;
//   - threads whose every chunk was lost get a stub Start/Exit pair so
//     surviving cross-thread references stay resolvable.
//
// The SalvageReport says exactly how much was recovered, dropped and
// synthesized, so `cla-analyze --salvage` can tell a clean trace from a
// repaired one (its exit code distinguishes the two).
#pragma once

#include <iosfwd>
#include <string>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"

namespace cla::trace {

struct SalvageReport {
  std::uint64_t events_recovered = 0;   ///< events surviving into the trace
  std::uint64_t bytes_dropped = 0;      ///< torn/corrupt bytes discarded
  std::uint64_t chunks_recovered = 0;   ///< intact v2 chunks (0 for v1)
  std::uint64_t chunks_dropped = 0;     ///< v2 chunks lost to CRC/tearing
  std::uint64_t synthesized_events = 0; ///< repair events added
  std::uint64_t events_discarded = 0;   ///< protocol-inconsistent events cut
  std::uint32_t threads_repaired = 0;   ///< threads needing any synthesis
  std::uint64_t runtime_dropped_events = 0;  ///< from the Meta chunk
  bool torn_tail = false;    ///< file ended mid-record/mid-chunk
  bool clean_close = false;  ///< writer's Meta chunk marked a clean exit

  /// True if anything at all had to be dropped or repaired — i.e. the
  /// salvaged trace is not byte-equivalent to a clean load.
  bool lossy() const noexcept {
    return bytes_dropped > 0 || chunks_dropped > 0 || synthesized_events > 0 ||
           events_discarded > 0 || torn_tail || !clean_close;
  }

  /// Human-readable summary (one line per non-zero fact).
  std::string to_string() const;
};

struct SalvageResult {
  Trace trace;
  SalvageReport report;
};

/// Recovers everything intact from `in` (v1, v2 or v3), decoding chunks
/// with the same decode_chunk as the strict loader; a chunk that fails
/// to decode is counted as dropped. Throws cla::util::Error only if the
/// stream is not recognisably a `.clat` file or holds no recoverable
/// events at all (and util::TraceIoError if the file cannot be opened);
/// any partial content yields a validate()-clean trace plus a report.
SalvageResult salvage_trace(std::istream& in);
SalvageResult salvage_trace_file(const std::string& path);

/// The repair half of salvage, exposed for reuse and tests: returns the
/// viewed trace fixed until validate() passes, accumulating what it did
/// into `report` (synthesized_events, events_discarded,
/// threads_repaired). Thin wrapper over repair_trace_semantics() in
/// cla/trace/validate.hpp, which is also what `cla-analyze
/// --strictness=repair` runs.
Trace repair_trace(const TraceView& view, SalvageReport& report);

}  // namespace cla::trace

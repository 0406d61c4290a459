// Always-on monitoring core: live traces in, rolling rankings out.
//
// MonitorCore owns one {TraceTailer, IncrementalAnalyzer} pair per watched
// `.clat` path and turns the tailer's poll outcomes into the degradation
// ladder the `cla-monitor` daemon promises:
//
//   Progress       -> append the delta to the source's analyzer
//   Rotated        -> the file was replaced under us (ring compaction,
//                     writer restart): reset the analyzer to the new
//                     generation and count CLA_W_TRACE_ROTATED
//   Removed        -> keep the last analysis, mark the source finished
//   IoError        -> count it, keep the previous state, try again later
//   budget breach  -> result() threw ResourceLimitError: shed the
//                     accumulated window (reset the analyzer), count
//                     CLA_W_ANALYSIS_WINDOW_SHED, keep running
//
// Nothing in here exits or throws out of step()/ranking_json(): the
// daemon's contract is that a hostile writer can degrade the ranking but
// never take the monitor down. The separation from the CLI keeps every
// rung of the ladder unit-testable without sockets or subprocesses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/tailer.hpp"

namespace cla::analysis {

class MonitorCore {
 public:
  struct Options {
    /// Analysis options for every per-source IncrementalAnalyzer. The
    /// ctor forces `validate` off (a live tail is almost always torn mid
    /// critical-section) and leaves `limits` to the caller — a non-zero
    /// limits.deadline_ms bounds each result() refresh and turns an
    /// overrun into a window shed instead of a stall.
    analysis::Options analysis;
    trace::TraceTailer::Options tailer;
    /// Locks reported per source in ranking_json(), by CP-Time rank.
    std::size_t top = 10;
  };

  /// Everything the daemon reports about one watched path.
  struct SourceState {
    std::string path;
    std::uint64_t generation = 0;      ///< rotations observed
    std::uint64_t events = 0;          ///< events analyzed this generation
    std::uint64_t total_events = 0;    ///< events analyzed over all generations
    std::uint64_t dropped_events = 0;  ///< writer-side counted loss (cumulative)
    std::uint64_t skipped_bytes = 0;   ///< corrupt bytes resynced over
    std::uint64_t rotations = 0;
    std::uint64_t windows_shed = 0;    ///< analyzer resets from budget breaches
    std::uint64_t io_errors = 0;       ///< polls that returned IoError
    bool writer_finished = false;      ///< clean-close Meta chunk seen
    bool removed = false;              ///< path unlinked and drained
    /// Cumulative CLA_W_* counters: the writer's RuntimeWarnings chunks
    /// merged with the monitor-side codes (rotated / shed).
    std::map<std::uint32_t, std::uint64_t> runtime_warnings;
    std::string last_error;  ///< most recent analysis failure, "" if none
  };

  MonitorCore(std::vector<std::string> paths, Options options);
  ~MonitorCore();

  MonitorCore(const MonitorCore&) = delete;
  MonitorCore& operator=(const MonitorCore&) = delete;

  /// One poll round over every source. Returns true when any source made
  /// progress (new events, counters, or a rotation — anything that makes
  /// the next ranking_json() worth recomputing). Never throws.
  bool step();

  /// Refreshes every source's analysis and serializes the rolling
  /// rankings (top-N locks by CP-Time per source, plus health counters).
  /// Analysis failures degrade to a shed or an error string in the JSON;
  /// this never throws and always returns a complete document. The
  /// document lives in one buffer that the next call renders over.
  const std::string& ranking_json();

  /// Refreshes and returns source `i`'s current analysis, or nullptr when
  /// the window is empty or the refresh had to shed (budget breach,
  /// hostile delta — same degradation ladder as ranking_json(), including
  /// the counted CLA_W_ANALYSIS_WINDOW_SHED). The pointer stays valid
  /// until the next step()/snapshot()/ranking_json() call. Never throws.
  const AnalysisResult* snapshot(std::size_t i);

  /// Smallest suggested backoff over all sources (0 after progress).
  std::uint32_t suggested_backoff_ms() const noexcept;

  /// True once every source is done: writer closed cleanly or the file
  /// was removed and fully drained.
  bool all_finished() const noexcept;

  /// True when any source suffered counted loss (drops, retired events,
  /// skipped bytes, rotations, shed windows) — the daemon's exit-3 rung.
  bool lossy() const noexcept;

  const std::vector<SourceState>& sources() const noexcept { return states_; }

 private:
  struct Source;

  void reset_analyzer(std::size_t i);

  Options options_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<SourceState> states_;
  std::string json_;  ///< ranking_json()'s buffer
};

}  // namespace cla::analysis

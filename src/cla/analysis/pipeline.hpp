// Staged analysis pipeline — the paper's analysis module (Fig. 3, §III)
// with every phase exposed as a named, individually invocable stage:
//
//   load -> validate -> index -> builddag -> walk -> stats -> report
//
// `load` parses a .clat file (or stream) with the one strict loader,
// trace::MappedTrace, and analyzes it in place without copying it into a
// Trace. `index` and `builddag` fan out across an ExecutionPolicy-sized
// worker pool, as do the walk's interval merge and the bounded engine's
// stats rescans, and are bit-identical to the sequential computation at
// any thread count. `builddag` condenses the
// trace into the segment DAG (segment_dag.hpp), one task per thread, each
// segment keeping the releaser its blocking wake-up hops to; `walk` then
// follows the hops back from the last thread's exit, looking up where
// each hop it takes lands — byte-for-byte the path of the paper's
// event-by-event backward walk.
//
// A non-zero ResourceLimits::max_rss_mb reroutes the analysis through the
// bounded-RSS streaming engine (streaming.hpp): a single cursor sweep
// builds the DAG without ever materializing the per-event index, and the
// statistics' integer totals are recomputed in windowed per-thread
// rescans and assembled by the same code as `stats` (assemble_stats), so
// traces larger than RAM analyze under a fixed memory budget — with the
// same report bytes.
//
// Each stage records its wall-clock cost; `profile()` is the analyzer's
// own observability layer (`cla-analyze --profile`, and the JSON report's
// "profile" array when ReportOptions::json_profile is set).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/guard.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// How the parallel stages (index, builddag, walk, stats) execute.
struct ExecutionPolicy {
  /// Worker threads for the fan-out stages. 1 = fully sequential (the
  /// legacy behaviour); 0 = one per hardware thread.
  unsigned num_threads = 1;
};

/// Load-stage options.
struct LoadOptions {
  /// Route the load through salvage_trace(): recover the intact chunks of
  /// a torn/crashed recording, repair the event stream so validate()
  /// passes, and expose the SalvageReport via Pipeline::salvage_report().
  bool salvage = false;
};

/// One coherent options aggregate for the whole pipeline, with per-stage
/// sub-structs (`StatsOptions` / `ReportOptions` are the historical
/// per-stage option structs; see README, MIGRATION).
struct Options {
  /// Validate the trace's structural invariants before analyzing.
  bool validate = true;
  StatsOptions stats;        ///< stats stage (TYPE 1 / TYPE 2 aggregation)
  ReportOptions report;      ///< report stage (table rendering)
  ExecutionPolicy execution; ///< index/stats fan-out
  LoadOptions load;          ///< load stage
  /// How the validate stage reacts to semantic violations: Strict throws
  /// a ValidationError (historic behaviour), Repair/Lenient fix the trace
  /// deterministically and record every fix in diagnostics().
  util::Strictness strictness = util::Strictness::Strict;
  /// Wall-clock / event-count budgets; exceeding one aborts the run with
  /// a ResourceLimitError (CLI exit code 4). 0 = unlimited.
  util::ResourceLimits limits;
};

/// The pipeline's stages, in execution order.
enum class Stage { Load, Validate, Index, BuildDag, Walk, Stats, Report };

/// Lower-case stage name as printed by --profile and --help.
std::string_view stage_name(Stage stage) noexcept;

struct StageTiming {
  Stage stage = Stage::Load;
  std::uint64_t ns = 0;
};

/// Per-stage wall-clock breakdown (the pipeline profiling itself).
struct PipelineProfile {
  std::vector<StageTiming> stages;  ///< in execution order

  std::uint64_t total_ns() const noexcept;
  /// Nanoseconds spent in `stage` (0 if it never ran).
  std::uint64_t stage_ns(Stage stage) const noexcept;
  /// Human-readable per-stage breakdown (the --profile output), ending
  /// with the process's peak resident set size so far.
  std::string to_string() const;
};

/// Staged analysis executor. Stages run lazily and at most once: each
/// accessor triggers the stages it depends on, so
///
///   Pipeline p{{.execution = {.num_threads = 8}}};
///   p.load_file("app.clat");
///   const AnalysisResult& r = p.result();   // validate..stats on demand
///
/// is the common path, while `p.index_stage(); p.trace_index()` etc. allow
/// phase-by-phase inspection. Not copyable or movable: the internal
/// structures hold pointers into the owned trace.
class Pipeline {
 public:
  explicit Pipeline(Options options = {});
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const Options& options() const noexcept { return options_; }

  // --- load stage (one of; each replaces any previously loaded trace) ---

  /// Loads a .clat file through the strict loader (trace::MappedTrace):
  /// the file is mmap'd and analyzed in place through a TraceView —
  /// zero-copy for v1/v2 event arrays, a single columnar decode for v3.
  /// With options.load.salvage it is salvaged (and repaired) instead.
  Pipeline& load_file(const std::string& path);
  /// Same, from an already-open stream: the stream is read to its end and
  /// the bytes are parsed by the same loader.
  Pipeline& load_stream(std::istream& in);
  /// Adopts an in-memory trace (no load cost recorded).
  Pipeline& use_trace(trace::Trace&& trace);
  /// Borrows a caller-owned trace; it must outlive the pipeline.
  Pipeline& use_trace(const trace::Trace& trace);

  // --- individually invocable stages (each pulls its prerequisites) ---

  /// Semantic validation per options.strictness. Strict: collects every
  /// violation into diagnostics() and throws cla::util::ValidationError
  /// if any reached error severity. Repair/Lenient: additionally runs the
  /// deterministic repair engine on a private copy of the trace (the
  /// borrowed original is never mutated) and records each fix as an
  /// info-severity diagnostic. A trace whose Meta chunk declares dropped
  /// events is treated as repair even under strict: the recorder already
  /// accounted for the loss, so the expected semantic holes are mended
  /// rather than rejected. Runs even when options.validate is false
  /// (explicit call wins).
  Pipeline& validate_stage();
  /// Per-primitive forward indexing (parallel across trace threads).
  Pipeline& index_stage();
  /// Segment-DAG construction: shard-parallel boundary discovery (see
  /// segment_dag.hpp).
  Pipeline& dag_stage();
  /// Backward critical-path construction: the merge walk over the DAG.
  Pipeline& walk_stage();
  /// TYPE 1 / TYPE 2 statistics (parallel across locks). With a
  /// non-zero limits.max_rss_mb this instead runs the bounded-RSS
  /// streaming engine end to end (sweep + DAG + walk + stats).
  Pipeline& stats_stage();

  // --- outputs (run any outstanding prerequisite stages) ---

  /// The loaded trace as a storage-agnostic view (the analysis input).
  const trace::TraceView& view() const;
  /// The loaded trace as an owned, mutable-representation Trace. After
  /// load_file/load_stream the first call materializes a copy (the view
  /// stays cheap); use view() unless a Trace is specifically required.
  const trace::Trace& trace();
  const TraceIndex& trace_index();
  /// The segment DAG (builds it on demand).
  const SegmentDag& segment_dag();
  /// Counters from the DAG merge walk; zeros until a DAG walk ran.
  const DagWalkStats& dag_walk_stats() const noexcept { return dag_stats_; }
  const CriticalPath& critical_path();
  const AnalysisResult& result();
  /// Moves the result out; the pipeline is done afterwards.
  AnalysisResult take_result();

  /// Report stage: human-readable / JSON rendering of the result. The
  /// JSON payload is versioned ("schema": 2) and includes the DAG's
  /// segment counts — and, when options.report.json_profile is set, the
  /// per-stage wall-clock profile.
  std::string report();
  std::string report_json();
  /// Self-contained HTML report (flame graph + timeline + embedded JSON).
  /// Bounded-RSS runs omit the timeline: materializing the full index
  /// would defeat the memory budget.
  std::string report_html();

  /// Per-stage timings of everything run so far.
  const PipelineProfile& profile() const noexcept { return profile_; }

  /// Set when the trace was loaded with options.load.salvage; describes
  /// what was recovered, dropped and repaired.
  const std::optional<trace::SalvageReport>& salvage_report() const noexcept {
    return salvage_report_;
  }

  /// Everything the validate stage found and the repair engine did.
  /// Empty after a clean strict run.
  const util::DiagnosticSink& diagnostics() const noexcept { return sink_; }
  /// diagnostics() rendered as JSON (the --diagnostics=json payload).
  std::string diagnostics_json() const { return sink_.to_json(); }

  /// True once the repair engine changed the trace: the analysis ran on a
  /// fixed-up stream and its results are approximate.
  bool repaired() const noexcept { return repaired_; }

  /// True when limits.max_rss_mb routes this pipeline through the
  /// bounded-RSS streaming engine.
  bool bounded() const noexcept { return options_.limits.max_rss_mb != 0; }
  /// Peak bytes the streaming engine accounted against the budget
  /// (0 until a bounded run completed).
  std::uint64_t streaming_peak_bytes() const noexcept {
    return streaming_peak_bytes_;
  }

 private:
  util::ThreadPool* pool();
  void record(Stage stage, std::uint64_t start_ns);
  void reset_stages();
  /// Runs the bounded-RSS streaming engine end to end (stats_stage body
  /// when bounded()).
  void streaming_stage();
  /// The JSON report's "dag" block, from the walk's counters.
  JsonReportMeta dag_meta() const;
  /// Arms the wall-clock budget on first use (so it measures analysis
  /// time, not the gap between construction and the first stage).
  const util::Deadline& deadline();
  /// Throws ResourceLimitError if `event_count` exceeds the event budget.
  void check_event_budget(std::uint64_t event_count) const;

  /// Starts a load: clears every stage result and arms the deadline.
  /// Returns the load's start time.
  std::uint64_t begin_load();
  /// Makes a parsed file / stream, or a salvaged trace, the input.
  void adopt_mapped(std::unique_ptr<trace::MappedTrace> mapped);
  void adopt_salvaged(trace::SalvageResult salvaged);
  /// Rebinds view_ (and drops any loaded file) onto an owned/borrowed
  /// Trace.
  void adopt_trace_storage();
  /// Ensures owned_trace_ holds a mutable copy of the current view (the
  /// repair path and trace() need one in mmap mode).
  trace::Trace& materialize_owned();

  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::optional<trace::Trace> owned_trace_;
  const trace::Trace* trace_ = nullptr;
  std::unique_ptr<trace::MappedTrace> mapped_;
  trace::TraceView view_;
  bool has_trace_ = false;
  bool validated_ = false;
  bool repaired_ = false;
  bool deadline_armed_ = false;
  util::Deadline deadline_;
  util::DiagnosticSink sink_;
  std::optional<TraceIndex> index_;
  std::optional<SegmentDag> dag_;
  DagWalkStats dag_stats_;
  std::optional<CriticalPath> path_;
  std::optional<AnalysisResult> result_;
  /// Filled by streaming_stage(): the peak accounted bytes.
  std::uint64_t streaming_peak_bytes_ = 0;
  std::optional<trace::SalvageReport> salvage_report_;
  PipelineProfile profile_;
};

}  // namespace cla::analysis

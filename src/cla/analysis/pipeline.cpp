#include "cla/analysis/pipeline.hpp"

#include "cla/analysis/html_report.hpp"
#include "cla/analysis/streaming.hpp"
#include <sys/resource.h>

#include <sstream>
#include <utility>

#include "cla/trace/salvage.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

std::string_view stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::Load: return "load";
    case Stage::Validate: return "validate";
    case Stage::Index: return "index";
    case Stage::BuildDag: return "builddag";
    case Stage::Walk: return "walk";
    case Stage::Stats: return "stats";
    case Stage::Report: return "report";
  }
  return "unknown";
}

std::uint64_t PipelineProfile::total_ns() const noexcept {
  std::uint64_t total = 0;
  for (const auto& timing : stages) total += timing.ns;
  return total;
}

std::uint64_t PipelineProfile::stage_ns(Stage stage) const noexcept {
  std::uint64_t total = 0;
  for (const auto& timing : stages)
    if (timing.stage == stage) total += timing.ns;
  return total;
}

std::string PipelineProfile::to_string() const {
  std::ostringstream out;
  out << "pipeline profile (per-stage wall clock):\n";
  for (const auto& timing : stages) {
    out << "  " << stage_name(timing.stage);
    for (std::size_t pad = stage_name(timing.stage).size(); pad < 10; ++pad) {
      out << ' ';
    }
    out << timing.ns << " ns\n";
  }
  out << "  total     " << total_ns() << " ns\n";
  // The whole process's high-water mark (Linux reports it in KiB).
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) out << "  peak rss  " << usage.ru_maxrss << " KiB\n";
  return out.str();
}

Pipeline::Pipeline(Options options) : options_(options) {}

Pipeline::~Pipeline() = default;

util::ThreadPool* Pipeline::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_num_threads(options_.execution.num_threads));
    if (deadline_armed_) pool_->set_deadline(deadline_);
  }
  return pool_.get();
}

const util::Deadline& Pipeline::deadline() {
  if (!deadline_armed_) {
    deadline_ = util::Deadline::after_ms(options_.limits.deadline_ms);
    deadline_armed_ = true;
    if (pool_ != nullptr) pool_->set_deadline(deadline_);
  }
  return deadline_;
}

void Pipeline::check_event_budget(std::uint64_t event_count) const {
  if (options_.limits.max_events != 0 &&
      event_count > options_.limits.max_events) {
    throw util::ResourceLimitError(
        "trace exceeds the event budget: " + std::to_string(event_count) +
        " events > --max-events=" + std::to_string(options_.limits.max_events) +
        " (CLA_E_EVENT_BUDGET_EXCEEDED)");
  }
}

void Pipeline::record(Stage stage, std::uint64_t start_ns) {
  profile_.stages.push_back(StageTiming{stage, util::now_ns() - start_ns});
}

void Pipeline::reset_stages() {
  validated_ = false;
  repaired_ = false;
  sink_.clear();
  index_.reset();
  dag_.reset();
  dag_stats_ = DagWalkStats{};
  path_.reset();
  result_.reset();
  streaming_peak_bytes_ = 0;
}

std::uint64_t Pipeline::begin_load() {
  const std::uint64_t start = util::now_ns();
  reset_stages();
  salvage_report_.reset();
  (void)deadline();
  return start;
}

Pipeline& Pipeline::load_file(const std::string& path) {
  const std::uint64_t start = begin_load();
  if (options_.load.salvage) {
    adopt_salvaged(trace::salvage_trace_file(path));
  } else {
    adopt_mapped(std::make_unique<trace::MappedTrace>(path));
  }
  record(Stage::Load, start);
  return *this;
}

Pipeline& Pipeline::load_stream(std::istream& in) {
  const std::uint64_t start = begin_load();
  if (options_.load.salvage) {
    adopt_salvaged(trace::salvage_trace(in));
  } else {
    adopt_mapped(
        std::make_unique<trace::MappedTrace>(trace::read_trace_bytes(in)));
  }
  record(Stage::Load, start);
  return *this;
}

void Pipeline::adopt_mapped(std::unique_ptr<trace::MappedTrace> mapped) {
  deadline().check("load");
  check_event_budget(mapped->view().event_count());
  owned_trace_.reset();
  mapped_ = std::move(mapped);
  view_ = mapped_->view();
  has_trace_ = true;
}

void Pipeline::adopt_salvaged(trace::SalvageResult salvaged) {
  check_event_budget(salvaged.trace.event_count());
  salvage_report_ = std::move(salvaged.report);
  adopt_owned(std::move(salvaged.trace));
}

Pipeline& Pipeline::use_trace(trace::Trace&& trace) {
  reset_stages();
  salvage_report_.reset();
  adopt_owned(std::move(trace));
  return *this;
}

Pipeline& Pipeline::use_trace(const trace::Trace& trace) {
  reset_stages();
  salvage_report_.reset();
  owned_trace_.reset();
  mapped_.reset();
  view_ = trace::TraceView(trace);
  has_trace_ = true;
  return *this;
}

void Pipeline::adopt_owned(trace::Trace&& trace) {
  owned_trace_ = std::move(trace);
  mapped_.reset();
  view_ = trace::TraceView(*owned_trace_);
  has_trace_ = true;
}

const trace::TraceView& Pipeline::view() const {
  CLA_CHECK(has_trace_,
            "pipeline has no trace: call load_file/load_stream/use_trace first");
  return view_;
}

Pipeline& Pipeline::validate_stage() {
  if (validated_) return *this;
  const trace::TraceView& v = view();
  const std::uint64_t start = util::now_ns();
  deadline().check("validate");
  check_event_budget(v.event_count());
  const bool clean = trace::validate_trace(v, sink_);
  // Counted drops are declared loss, not corruption: when the recorder's
  // degraded mode already accounted for every missing event (Meta chunk
  // dropped counter), semantic holes are expected, so strict degrades to
  // repair instead of rejecting a trace the writer itself flagged lossy.
  const util::Strictness effective =
      (options_.strictness == util::Strictness::Strict &&
       v.dropped_events() > 0)
          ? util::Strictness::Repair
          : options_.strictness;
  if (effective == util::Strictness::Strict) {
    if (!clean) {
      record(Stage::Validate, start);
      std::string message = "trace failed validation: " +
                            std::to_string(sink_.error_count()) +
                            " error-severity diagnostic(s)";
      if (const auto* first = sink_.first_at_least(util::Severity::Error)) {
        message += "; first: " + first->to_string();
      }
      throw util::ValidationError(message);
    }
  } else if (sink_.fatal_count() > 0) {
    // Fatal findings (no threads / no events) are beyond repair in any
    // mode; downstream stages have nothing to work with.
    record(Stage::Validate, start);
    throw util::ValidationError(
        "trace is irreparable: " +
        std::to_string(sink_.fatal_count()) + " fatal diagnostic(s)");
  } else if (!sink_.empty()) {
    // Repair / lenient: repair reads the view (a borrowed or mapped trace
    // is never mutated), writes the fixed trace once, and the analysis
    // rebinds onto it; every fix is logged. A diagnostics-free trace
    // skips this entirely, so clean inputs analyze byte-identically to
    // strict — and the mmap fast path stays zero-copy.
    trace::RepairResult fixed =
        trace::repair_trace_semantics(v, effective, &sink_);
    repaired_ = fixed.summary.changed();
    adopt_owned(std::move(fixed.trace));
  }
  validated_ = true;
  record(Stage::Validate, start);
  return *this;
}

Pipeline& Pipeline::index_stage() {
  if (index_.has_value()) return *this;
  if (options_.validate) validate_stage();
  // Bind the view only after validation: the repair path may have moved
  // the analysis onto the repaired trace.
  const trace::TraceView& v = view();
  const std::uint64_t start = util::now_ns();
  deadline().check("index");
  check_event_budget(v.event_count());
  index_.emplace(v, pool());
  record(Stage::Index, start);
  return *this;
}

Pipeline& Pipeline::dag_stage() {
  if (dag_.has_value()) return *this;
  index_stage();
  const std::uint64_t start = util::now_ns();
  const util::Deadline& dl = deadline();
  dl.check("builddag");
  dag_ = SegmentDag::build(*index_, pool(), dl.unlimited() ? nullptr : &dl);
  record(Stage::BuildDag, start);
  return *this;
}

Pipeline& Pipeline::walk_stage() {
  if (path_.has_value() || result_.has_value()) return *this;
  if (bounded()) {
    streaming_stage();
    return *this;
  }
  dag_stage();
  const std::uint64_t start = util::now_ns();
  const util::Deadline& dl = deadline();
  dl.check("walk");
  path_ = compute_critical_path(*dag_, pool(),
                                dl.unlimited() ? nullptr : &dl, &dag_stats_);
  record(Stage::Walk, start);
  return *this;
}

Pipeline& Pipeline::stats_stage() {
  if (result_.has_value()) return *this;
  if (bounded()) {
    streaming_stage();
    return *this;
  }
  walk_stage();
  const std::uint64_t start = util::now_ns();
  deadline().check("stats");
  result_ = compute_stats(*index_, std::move(*path_), options_.stats);
  path_.reset();  // the path now lives inside the result
  record(Stage::Stats, start);
  return *this;
}

void Pipeline::streaming_stage() {
  if (result_.has_value()) return;
  if (options_.validate) validate_stage();
  const trace::TraceView& v = view();
  deadline().check("stream");
  check_event_budget(v.event_count());
  const util::Deadline& dl = deadline();
  StreamingOutcome outcome = analyze_streaming(
      v, options_.stats, pool(), options_.limits.max_rss_mb << 20,
      dl.unlimited() ? nullptr : &dl);
  result_ = std::move(outcome.result);
  dag_stats_ = outcome.walk_stats;
  streaming_peak_bytes_ = outcome.peak_bytes;
  profile_.stages.push_back(StageTiming{Stage::Index, outcome.timings.sweep_ns});
  profile_.stages.push_back(
      StageTiming{Stage::BuildDag, outcome.timings.dag_ns});
  profile_.stages.push_back(StageTiming{Stage::Walk, outcome.timings.walk_ns});
  profile_.stages.push_back(
      StageTiming{Stage::Stats, outcome.timings.stats_ns});
}

const TraceIndex& Pipeline::trace_index() {
  index_stage();
  return *index_;
}

const SegmentDag& Pipeline::segment_dag() {
  dag_stage();
  return *dag_;
}

const CriticalPath& Pipeline::critical_path() {
  if (result_.has_value()) return result_->path;
  walk_stage();
  return *path_;
}

const AnalysisResult& Pipeline::result() {
  stats_stage();
  return *result_;
}

AnalysisResult Pipeline::take_result() {
  stats_stage();
  AnalysisResult out = std::move(*result_);
  result_.reset();
  return out;
}

std::string Pipeline::report() {
  stats_stage();
  const std::uint64_t start = util::now_ns();
  std::string rendered = render_report(*result_, options_.report);
  // Trace-health section: only when validation or repair actually found
  // something, so a clean run's report stays byte-identical to the
  // historic output.
  if (!sink_.empty()) {
    rendered += "\n--- trace health ---\n";
    rendered += "strictness: ";
    rendered += util::to_string(options_.strictness);
    rendered += "; diagnostics: ";
    rendered += std::to_string(sink_.count(util::Severity::Error) +
                               sink_.count(util::Severity::Fatal));
    rendered += " error(s), ";
    rendered += std::to_string(sink_.count(util::Severity::Warning));
    rendered += " warning(s), ";
    rendered += std::to_string(sink_.count(util::Severity::Info));
    rendered += " note(s)\n";
    rendered += sink_.to_string(20);
    if (repaired_) {
      rendered +=
          "note: the trace was repaired before analysis; critical-path "
          "results are approximate\n";
    }
  }
  record(Stage::Report, start);
  return rendered;
}

JsonReportMeta Pipeline::dag_meta() const {
  // The walk counted the DAG's segments; a bounded run discards its DAG
  // after the walk, with the same counts as a full build.
  JsonReportMeta meta;
  meta.has_dag = true;
  meta.dag_segments = dag_stats_.segments;
  meta.dag_threads = view_.thread_count();
  return meta;
}

std::string Pipeline::report_json() {
  stats_stage();
  const std::uint64_t start = util::now_ns();
  JsonReportMeta meta = dag_meta();
  if (options_.report.json_profile) {
    meta.include_profile = true;
    for (const auto& timing : profile_.stages) {
      meta.profile.emplace_back(std::string(stage_name(timing.stage)),
                                timing.ns);
    }
  }
  std::string rendered = render_json(*result_, meta);
  record(Stage::Report, start);
  return rendered;
}

std::string Pipeline::report_html() {
  stats_stage();
  const std::uint64_t start = util::now_ns();
  const TraceIndex* index = bounded() ? nullptr : &trace_index();
  std::string rendered = render_html(*result_, dag_meta(), index);
  record(Stage::Report, start);
  return rendered;
}

}  // namespace cla::analysis

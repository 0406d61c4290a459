#include "cla/analysis/incremental.hpp"

#include <algorithm>
#include <utility>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/report.hpp"
#include "cla/util/error.hpp"
#include "cla/util/guard.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

IncrementalAnalyzer::IncrementalAnalyzer(Options options)
    : options_(std::move(options)) {}

IncrementalAnalyzer::~IncrementalAnalyzer() = default;

void IncrementalAnalyzer::append(const trace::Trace& chunk) {
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(chunk.thread_count()); ++tid) {
    const auto events = chunk.thread_events(tid);
    if (events.empty()) continue;
    if (tid < trace_.thread_count()) {
      const auto existing = trace_.thread_events(tid);
      CLA_CHECK(existing.empty() ||
                    events.front().ts >= existing.back().ts,
                "appended chunk rewinds a thread's timestamps");
    }
    trace_.append_thread_events(tid, events);
    dirty_ = true;
  }
  if (trace_.tables().merge(chunk.tables())) {
    dirty_ = true;
    names_changed_ = true;
  }
  if (chunk.dropped_events() != 0) {
    trace_.set_dropped_events(trace_.dropped_events() +
                              chunk.dropped_events());
    dirty_ = true;
  }
}

const AnalysisResult& IncrementalAnalyzer::result() {
  if (dirty_ || !result_.has_value()) refresh();
  CLA_CHECK(result_.has_value(), "incremental analyzer has no trace yet");
  return *result_;
}

std::string IncrementalAnalyzer::report_json() {
  (void)result();
  JsonReportMeta meta;
  meta.has_dag = true;
  meta.dag_segments = dag_.segment_count();
  meta.dag_threads = dag_.thread_count();
  return render_json(*result_, meta);
}

void IncrementalAnalyzer::refresh() {
  CLA_CHECK(trace_.thread_count() > 0,
            "incremental analyzer has no trace yet");
  // Each refresh gets a fresh wall-clock budget from --deadline-ms (the
  // whole point of incremental analysis is that one round is small); the
  // event budget applies to the accumulated trace. A breach throws
  // ResourceLimitError out of result() — always-on callers catch it and
  // shed the window instead of dying.
  const util::Deadline deadline =
      util::Deadline::after_ms(options_.limits.deadline_ms);
  // The walk record and the TYPE 1 sums describe the last result's path.
  // A refresh that throws leaves no result, and the next one starts them
  // afresh.
  CriticalPath previous;
  if (result_.has_value()) {
    previous = std::move(result_->path);
    lock_table_.take_back(std::move(result_->locks));
    result_.reset();
  } else {
    walk_record_ = WalkRecord{};
    path_sums_ = PathSums{};
    lock_table_ = LockTable{};
  }
  if (names_changed_) lock_table_.forget_names();
  names_changed_ = false;
  if (options_.limits.max_events != 0 &&
      trace_.event_count() > options_.limits.max_events) {
    throw util::ResourceLimitError(
        "accumulated trace exceeds the event budget: " +
        std::to_string(trace_.event_count()) + " events > max-events=" +
        std::to_string(options_.limits.max_events) +
        " (CLA_E_EVENT_BUDGET_EXCEEDED)");
  }
  if (options_.validate) trace_.validate();
  deadline.check("incremental-validate");
  const trace::TraceView view(trace_);
  const auto thread_count = static_cast<trace::ThreadId>(view.thread_count());
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_num_threads(options_.execution.num_threads));
  }
  pool_->set_deadline(deadline);
  scans_.resize(thread_count);

  // --- the re-resolution boundary, from the *previous* round's state ---
  std::uint64_t boundary = ~static_cast<std::uint64_t>(0);
  std::vector<std::uint32_t> appended_from(thread_count);
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const ThreadScanState& scan = scans_[tid];
    boundary = std::min(boundary, scan.earliest_open_ts());
    appended_from[tid] = scan.next_index();
    const trace::EventsView& events = view.thread_events(tid);
    if (appended_from[tid] < events.size()) {
      boundary = std::min(boundary, events.ts_at(appended_from[tid]));
    }
  }

  // --- resume the forward scans over the appended tail only ---
  pool_->parallel_for(thread_count, [&](std::size_t tid) {
    scans_[tid].consume(view.thread_events(static_cast<trace::ThreadId>(tid)),
                        static_cast<trace::ThreadId>(tid));
  });
  // A thread whose timestamps regress can append records that start
  // before its first new event.
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    if (scans_[tid].info.ts_ordered) continue;
    const trace::EventsView& events = view.thread_events(tid);
    for (std::uint32_t i = appended_from[tid]; i < events.size(); ++i) {
      boundary = std::min(boundary, events.ts_at(i));
    }
  }

  deadline.check("incremental-scan");

  // Extend the index in place: it re-sorts sections only from the
  // earliest new record on, never before the boundary, and keeps the
  // per-mutex totals. The scans keep only their open records.
  index_.extend(view, scans_, pool_.get());
  deadline.check("incremental-index");

  // Extend the DAG in place: segments beginning before the boundary are
  // kept, the rest are rediscovered against the extended index.
  dag_.extend(index_, boundary, pool_.get(), &deadline);
  retained_ = dag_.retained_count();
  rescanned_ = dag_.segment_count() - retained_;
  deadline.check("incremental-builddag");

  // Splice the walk onto the last refresh's path and bring the TYPE 1
  // sums along. Every retained segment began before the boundary, except
  // on a thread whose timestamps regress, which the DAG rediscovers in
  // full: then nothing is spliced.
  const bool ordered =
      std::all_of(index_.threads().begin(), index_.threads().end(),
                  [](const ThreadInfo& info) { return info.ts_ordered; });
  CriticalPath path =
      compute_critical_path(dag_, walk_record_, std::move(previous),
                            ordered ? boundary : 0, pool_.get(), nullptr,
                            &walk_stats_);
  deadline.check("incremental-walk");
  path_sums_.update(index_, path, walk_record_.changed_from(), boundary);
  result_ = compute_stats(index_, std::move(path), path_sums_, lock_table_,
                          options_.stats);
  dirty_ = false;
}

}  // namespace cla::analysis

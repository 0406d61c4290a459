// live-ldap: the analysis layer used incrementally, as cla-monitor runs
// it, then once in batch over the final file. Setup simulates the
// OpenLDAP-like server (256 entry locks plus a connection lock, 16 virtual
// threads, about 0.25M events) and renders its reference JSON report from
// the in-memory trace with one analysis worker. Each pass appends that
// trace in time-sliced rounds to a growing v3 file through
// ChunkedTraceWriter; after each round MonitorCore::step() tails the file
// and ranking_json() refreshes the ranking, with cla-monitor's default
// options (one analysis worker). The refresh latency is the time from the
// end of a round's write to ranking_json() returning. At the end of a
// pass the monitor must have seen every event, a batch Pipeline run over
// the final file must reproduce the reference report byte for byte and
// the monitor's final ranking, and its run summary must survive a round
// trip through a fresh cla::agg store.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "cla/agg/merge.hpp"
#include "cla/agg/store.hpp"
#include "cla/analysis/monitor.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/workloads/workload.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// The tail of MonitorCore::ranking_json() for one source, from its
/// "completion_time_ns" field to the end of the document, rendered from a
/// batch result with the monitor's field order and precision.
std::string ranking_tail(const cla::analysis::AnalysisResult& result,
                         std::size_t top) {
  std::ostringstream out;
  out.precision(12);
  out << ",\"completion_time_ns\":" << result.completion_time
      << ",\"worker_threads\":" << result.worker_threads << ",\"locks\":[";
  const std::size_t n = std::min(top, result.locks.size());
  for (std::size_t k = 0; k < n; ++k) {
    const cla::analysis::LockStats& ls = result.locks[k];
    if (k > 0) out << ',';
    out << "{\"name\":\"" << ls.name << "\",\"id\":" << ls.id
        << ",\"cp_hold_time_ns\":" << ls.cp_hold_time
        << ",\"cp_invocations\":" << ls.cp_invocations
        << ",\"cp_time_fraction\":" << ls.cp_time_fraction
        << ",\"invocations\":" << ls.invocations
        << ",\"total_wait_ns\":" << ls.total_wait
        << ",\"total_hold_ns\":" << ls.total_hold << '}';
  }
  out << "]}]}";
  return out.str();
}

/// One batch analysis of `path`, as cla-analyze runs it. The untraced run
/// calls the stable entry points; the traced run calls each Pipeline stage
/// in its own span and records how much resident memory the load added.
std::string batch_report(cla::analysis::Pipeline& pipeline, const fs::path& path,
                         Tracer& tracer, std::vector<double>& load_rss) {
  if (!tracer.enabled()) {
    pipeline.load_file(path.string());
    return pipeline.report_json();
  }
  const double rss_before = current_rss_mb();
  {
    ScopedSpan span(tracer, "trace.load");
    pipeline.load_file(path.string());
  }
  load_rss.push_back(current_rss_mb() - rss_before);
  {
    ScopedSpan span(tracer, "analysis.validate");
    pipeline.validate_stage();
  }
  {
    ScopedSpan span(tracer, "analysis.index");
    pipeline.index_stage();
  }
  {
    ScopedSpan span(tracer, "analysis.builddag");
    pipeline.dag_stage();
  }
  {
    ScopedSpan span(tracer, "analysis.walk");
    pipeline.walk_stage();
  }
  {
    ScopedSpan span(tracer, "analysis.stats");
    pipeline.stats_stage();
  }
  ScopedSpan span(tracer, "analysis.report");
  return pipeline.report_json();
}

/// Appends the run summary to a fresh store in `dir` and merges the store
/// back, as `cla-monitor --agg-store` and `cla-agg report` do. False when
/// the run did not survive the round trip.
bool aggregate(const cla::analysis::AnalysisResult& result, std::uint64_t events,
               std::uint32_t seq, const fs::path& dir, Tracer& tracer) {
  fs::remove_all(dir);
  std::optional<cla::agg::AggStore> store;
  {
    ScopedSpan span(tracer, "agg.append");
    cla::agg::RunMeta meta;
    meta.run_id = "perfbench-ldap";
    meta.host = "perfbench";
    meta.seq = seq;
    meta.events = events;
    store.emplace(dir.string(), cla::agg::AggStore::Mode::ReadWrite);
    if (!store->append(cla::agg::make_run_record(result, meta))) return false;
  }
  ScopedSpan span(tracer, "agg.merge");
  const cla::agg::MergedReport merged = cla::agg::merge_records(store->read_records());
  (void)cla::agg::merged_report_json(merged);
  return merged.runs == 1;
}

}  // namespace

Result run_live_ldap(const Config& config, Tracer& tracer) {
  Result result;
  const bool tiny = config.size == Size::Tiny;
  const std::size_t rounds = tiny ? 20 : 100;
  const fs::path live_path = config.work_dir / "live.clat";
  const fs::path agg_dir = config.work_dir / "agg";

  std::optional<cla::trace::Trace> trace;
  std::string reference;
  // cuts[r][tid]: end of thread tid's events written by round r.
  std::vector<std::vector<std::size_t>> cuts;
  const double setup_s = timed_setup([&] {
    cla::workloads::WorkloadConfig workload;
    workload.threads = tiny ? 3 : 15;  // plus the load generator
    workload.scale = tiny ? 0.2 : 4.0;
    workload.seed = config.seed;
    trace.emplace(cla::workloads::run_workload("ldap", workload).trace);
    const std::uint64_t t0 = trace->start_ts();
    const std::uint64_t span = trace->end_ts() - t0 + 1;
    cuts.assign(rounds, std::vector<std::size_t>(trace->thread_count()));
    for (cla::trace::ThreadId tid = 0; tid < trace->thread_count(); ++tid) {
      const auto events = trace->thread_events(tid);
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::uint64_t until = t0 + span * (r + 1) / rounds;
        cuts[r][tid] = static_cast<std::size_t>(
            std::partition_point(events.begin(), events.end(),
                                 [&](const cla::trace::Event& e) { return e.ts < until; }) -
            events.begin());
      }
      cuts[rounds - 1][tid] = events.size();
    }
    cla::analysis::Pipeline pipeline;
    pipeline.use_trace(*trace);
    reference = pipeline.report_json();
  });
  if (config.breakage == Breakage::ReportByte) reference[reference.size() / 2] ^= 1;
  if (config.breakage == Breakage::LastRound) {
    for (std::size_t tid = 0; tid < cuts.back().size(); ++tid) {
      cuts.back()[tid] = (cuts[rounds - 2][tid] + cuts.back()[tid]) / 2;
    }
  }
  const std::uint64_t events = trace->event_count();

  const cla::analysis::MonitorCore::Options monitor_options;
  std::vector<double> refresh_ns, ref_ns, first_tenth, last_tenth, total_vs_batch,
      pass_mev, pass_rss, load_rss, segments, useful;
  std::uint64_t windows_shed = 0, io_errors = 0;
  ReferenceJob reference_job(tiny ? 5'000 : 100'000);
  {
    ScopedSpan measure(tracer, "bench.measure");
    const auto start = Clock::now();
    for (std::uint32_t pass = 0; keep_measuring(start, config.seconds, refresh_ns.size());
         ++pass) {
      fs::remove(live_path);
      reset_peak_rss();
      cla::trace::ChunkedTraceWriter writer(live_path.string(),
                                            cla::trace::kTraceVersionV3);
      for (const auto& [id, name] : trace->object_names()) writer.write_object_name(id, name);
      for (const auto& [tid, name] : trace->thread_names()) writer.write_thread_name(tid, name);
      cla::analysis::MonitorCore core({live_path.string()}, monitor_options);
      std::string ranking;
      double pass_refresh_ns = 0;
      for (std::size_t r = 0; r < rounds; ++r) {
        tracer.set_run(static_cast<std::uint32_t>(pass * rounds + r));
        {
          ScopedSpan span(tracer, "trace.live_write");
          for (cla::trace::ThreadId tid = 0; tid < trace->thread_count(); ++tid) {
            const std::size_t from = r == 0 ? 0 : cuts[r - 1][tid];
            const std::size_t to = cuts[r][tid];
            if (to > from) writer.write_events(tid, trace->thread_events(tid).data() + from, to - from);
          }
          if (r + 1 == rounds) writer.write_meta(0, /*clean_close=*/true);
        }
        const auto& state = core.sources().front();
        const std::uint64_t shed_before = state.windows_shed;
        const std::uint64_t io_before = state.io_errors;
        const auto refresh_start = Clock::now();
        {
          ScopedSpan span(tracer, "trace.tail_poll");
          core.step();
        }
        {
          ScopedSpan span(tracer, "analysis.refresh");
          ranking = core.ranking_json();
        }
        const double ns = ns_since(refresh_start);
        refresh_ns.push_back(ns);
        {
          ScopedSpan span(tracer, "reference.job");
          ref_ns.push_back(reference_job.run_ns());
        }
        pass_refresh_ns += ns;
        if (r < rounds / 10) first_tenth.push_back(ns);
        if (r >= rounds - rounds / 10) last_tenth.push_back(ns);
        ++result.attempted;
        const auto& after = core.sources().front();
        windows_shed += after.windows_shed - shed_before;
        io_errors += after.io_errors - io_before;
        if (after.windows_shed != shed_before || after.io_errors != io_before ||
            !after.last_error.empty()) {
          ++result.failed;
          if (result.notes.size() < 5) {
            result.notes.push_back("live-ldap round " + std::to_string(r) +
                                   ": refresh shed or failed: " + after.last_error);
          }
        }
      }
      writer.close();
      pass_rss.push_back(peak_rss_mb() - reference_job.footprint_mb());

      std::string why;
      try {
        cla::analysis::Pipeline batch;
        const auto batch_start = Clock::now();
        const std::string report = batch_report(batch, live_path, tracer, load_rss);
        total_vs_batch.push_back(pass_refresh_ns / ns_since(batch_start));
        const auto& walk = batch.dag_walk_stats();
        segments.push_back(static_cast<double>(walk.segments));
        if (const auto hops = walk.jumps_taken + walk.speculation_misses; hops > 0) {
          useful.push_back(static_cast<double>(walk.jumps_taken) / static_cast<double>(hops));
        }
        const std::size_t tail = ranking.find(",\"completion_time_ns\":");
        if (core.sources().front().events != events) {
          why = "monitor saw " + std::to_string(core.sources().front().events) +
                " of " + std::to_string(events) + " events";
        } else if (report != reference) {
          why = "batch report of the final file differs from the reference";
        } else if (tail == std::string::npos ||
                   ranking.compare(tail, std::string::npos,
                                   ranking_tail(batch.result(), monitor_options.top)) != 0) {
          why = "final ranking differs from the batch analysis";
        } else if (!aggregate(batch.result(), events, pass, agg_dir, tracer)) {
          why = "the aggregation store lost the run";
        }
      } catch (const std::exception& e) {
        why = std::string("batch analysis of the final file failed: ") + e.what();
      }
      if (!why.empty()) {
        result.failed = std::min(result.failed + 1, result.attempted);
        if (result.notes.size() < 5) result.notes.push_back("live-ldap pass " + std::to_string(pass) + ": " + why);
      }
      pass_mev.push_back(static_cast<double>(events) / pass_refresh_ns * 1e3);
    }
  }

  report_latency(refresh_ns, ref_ns, result);
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = setup_s;
  e2e["peak_rss_mb"] = median(pass_rss);
  e2e["trace_bytes_per_event"] =
      static_cast<double>(fs::file_size(live_path)) / static_cast<double>(events);

  auto& layer = result.per_layer;
  layer["bench.mev_per_s"] = median(pass_mev);
  layer["trace.live_write_ns"] = median(tracer.durations_ns("trace.live_write"));
  layer["trace.tail_poll_ns"] = median(tracer.durations_ns("trace.tail_poll"));
  layer["analysis.refresh_ns"] = median(tracer.durations_ns("analysis.refresh"));
  layer["analysis.refresh_growth"] =
      median(first_tenth) > 0 ? median(last_tenth) / median(first_tenth) : 0;
  layer["analysis.live_total_vs_batch"] = median(total_vs_batch);
  layer["analysis.windows_shed"] = static_cast<double>(windows_shed);
  layer["trace.tail_io_errors"] = static_cast<double>(io_errors);
  for (const char* stage : {"validate", "index", "builddag", "walk", "stats", "report"}) {
    const std::string name = std::string("analysis.") + stage;
    layer[name + "_ns"] = median(tracer.durations_ns(name));
  }
  layer["trace.load_ns"] = median(tracer.durations_ns("trace.load"));
  layer["trace.load_rss_mb"] = median(load_rss);
  layer["agg.append_ns"] = median(tracer.durations_ns("agg.append"));
  layer["agg.merge_ns"] = median(tracer.durations_ns("agg.merge"));
  layer["analysis.segments"] = median(segments);
  layer["analysis.speculation_useful"] = median(useful);

  char line[256];
  std::snprintf(line, sizeof line,
                "live-ldap: %zu passes x %zu rounds over %llu events, refresh "
                "p50 %.2f ms p90 %.2f ms, live total %.1fx one batch run",
                total_vs_batch.size(), rounds, static_cast<unsigned long long>(events),
                median(refresh_ns) / 1e6, percentile(refresh_ns, 90) / 1e6,
                median(total_vs_batch));
  result.notes.push_back(line);
  return result;
}

}  // namespace perfbench

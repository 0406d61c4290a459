// cla-analyze: run critical lock analysis on a recorded .clat trace file
// (the analysis module of the paper's Fig. 3, as a standalone tool).
//
// Typical use with the LD_PRELOAD interposer:
//   CLA_TRACE_FILE=/tmp/app.clat LD_PRELOAD=libcla_interpose.so ./app
//   cla-analyze /tmp/app.clat --threads 8 --profile
//
// Exit codes (the full contract, also in README and --help):
//   0  success, clean trace
//   1  runtime failure (unreadable/corrupt trace, I/O error)
//   2  usage error (bad flags; usage goes to stderr)
//   3  success, but lossy: the --salvage load dropped data, the
//      --strictness=repair/lenient engine changed the trace, or the
//      recorder itself dropped events (full buffers / full disk), so
//      the report describes a partial or repaired recording
//   4  resource limit hit (--deadline-ms / --max-events)
//   5  strict-mode validation failure (error/fatal diagnostics)
#include <cctype>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string_view>

#include "cla/agg/store.hpp"
#include "cla/analysis/html_report.hpp"
#include "cla/core/cla.hpp"
#include "cla/util/args.hpp"
#include "cla/util/diagnostics.hpp"

#ifndef CLA_VERSION_STRING
#define CLA_VERSION_STRING "unknown"
#endif

namespace {

void print_usage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s <trace.clat> [options]\n"
      "pipeline stages: load -> validate -> index -> builddag -> walk ->\n"
      "                 stats -> report\n"
      "options:\n"
      "  --threads N     worker threads for the index/builddag/walk/stats\n"
      "                  stages (default 1 = sequential, 0 = one per core)\n"
      "  --max-rss-mb N  bound the analysis working set to ~N MiB by\n"
      "                  routing through the streaming engine (exit 4 if\n"
      "                  the bound cannot be met)\n"
      "  --profile       print the per-stage timing breakdown and the peak\n"
      "                  RSS to stderr\n"
      "  --top N         show only the top-N locks\n"
      "  --report F      output format: text (default) | json | csv | html.\n"
      "                  html is a single self-contained file (flame graph\n"
      "                  of CP time per (lock, callsite), per-thread\n"
      "                  timeline, embedded JSON report)\n"
      "  --json          alias for --report json\n"
      "  --csv           alias for --report csv (TYPE1/TYPE2 tables)\n"
      "  --timeline      print the ASCII execution timeline\n"
      "  --phase K       restrict analysis to the K-th recorded\n"
      "                  PhaseBegin/PhaseEnd region\n"
      "  --whatif LOCK[=PCT%%]\n"
      "                  re-walk the segment DAG with LOCK's critical\n"
      "                  sections shrunk by PCT%% (default 100%% =\n"
      "                  eliminated): prints the closed-form upper bound\n"
      "                  and the DAG-replay prediction. PCT must be a\n"
      "                  complete number in 0..100; a non-numeric suffix\n"
      "                  is treated as part of the lock name\n"
      "  --salvage       recover a torn/crashed recording: keep the intact\n"
      "                  chunks, repair the event stream, report what was\n"
      "                  lost (exit code 3 if the recovery was lossy)\n"
      "  --strictness M  how to react to semantic violations in the trace:\n"
      "                  strict  = refuse the trace (exit 5; default)\n"
      "                  repair  = apply deterministic fixes and analyze\n"
      "                  lenient = additionally drop irreparable threads\n"
      "                  (repair/lenient exit 3 when the trace was changed)\n"
      "  --deadline-ms N abort the analysis after N wall-clock ms (exit 4)\n"
      "  --max-events N  refuse traces with more than N events (exit 4)\n"
      "  --diagnostics=json\n"
      "                  print the structured diagnostics as JSON instead\n"
      "                  of the report\n"
      "  --convert OUT   convert the trace to OUT instead of analyzing it;\n"
      "                  --format picks the target version (default v3).\n"
      "                  The input version is auto-detected, so this both\n"
      "                  compacts v1/v2 traces and expands v3 back to v2\n"
      "  --format F      target .clat version for --convert: v2 | v3\n"
      "  --agg-store DIR append this run's summary to the crash-safe\n"
      "                  cross-run aggregation store in DIR (see cla-agg)\n"
      "  --agg-run-id ID run identity for the store (default: this host\n"
      "                  and the trace file name, so re-analyzing the same\n"
      "                  trace dedups instead of double-counting)\n"
      "  --agg-host H    origin host stored with the summary\n"
      "  --agg-label L   release/build tag (cla-agg diff baseline key)\n"
      "  --version       print the tool version and supported .clat range\n"
      "exit codes:\n"
      "  0 clean  1 error  2 usage  3 lossy (salvage/repair/dropped events)\n"
      "  4 resource limit  5 strict-mode validation failure\n",
      prog);
}

enum class ReportFormat { Text, Json, Csv, Html };

/// Resolves --report plus the --json/--csv aliases; any disagreement
/// between them is a usage error.
ReportFormat parse_report_format(const cla::util::Args& args) {
  ReportFormat format = ReportFormat::Text;
  bool chosen = false;
  if (const auto value = args.get("report")) {
    if (*value == "text") {
      format = ReportFormat::Text;
    } else if (*value == "json") {
      format = ReportFormat::Json;
    } else if (*value == "csv") {
      format = ReportFormat::Csv;
    } else if (*value == "html") {
      format = ReportFormat::Html;
    } else {
      throw cla::util::ArgsError("invalid --report value '" + *value +
                                 "' (expected text, json, csv or html)");
    }
    chosen = true;
  }
  if (args.has("json")) {
    if (chosen && format != ReportFormat::Json) {
      throw cla::util::ArgsError("--json conflicts with the --report value");
    }
    format = ReportFormat::Json;
    chosen = true;
  }
  if (args.has("csv")) {
    if (chosen && format != ReportFormat::Csv) {
      throw cla::util::ArgsError(
          "--csv conflicts with --json / the --report value");
    }
    format = ReportFormat::Csv;
  }
  return format;
}

struct WhatifSpec {
  std::string lock;
  double factor = 1.0;  ///< fraction of CS time removed (1.0 = eliminate)
};

/// Strict LOCK[=PCT%] parse. The percentage must consume the whole
/// suffix ("=50junk%" is a usage error, stod's silent prefix parse is
/// not acceptable here) and lie in 0..100. A suffix that does not even
/// start like a number is taken as part of the lock name, so locks named
/// with '=' still resolve.
WhatifSpec parse_whatif(const std::string& spec) {
  WhatifSpec out{spec, 1.0};
  const auto eq = spec.rfind('=');
  if (eq == std::string::npos) return out;
  std::string_view pct(spec);
  pct.remove_prefix(eq + 1);
  bool had_percent = false;
  if (!pct.empty() && pct.back() == '%') {
    pct.remove_suffix(1);
    had_percent = true;
  }
  const bool numeric_looking =
      !pct.empty() && (std::isdigit(static_cast<unsigned char>(pct.front())) ||
                       pct.front() == '.' || pct.front() == '+' ||
                       pct.front() == '-');
  if (!numeric_looking && !had_percent) return out;  // '=' inside the name
  double value = 0.0;
  const char* const last = pct.data() + pct.size();
  const auto [end, ec] = std::from_chars(pct.data(), last, value);
  if (ec != std::errc() || end != last || value < 0.0 || value > 100.0) {
    throw cla::util::ArgsError("invalid --whatif shrink '" + spec +
                               "' (expected LOCK or LOCK=PCT% with PCT "
                               "in 0..100)");
  }
  out.lock = spec.substr(0, eq);
  out.factor = value / 100.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "cla-analyze";
  try {
    cla::util::Args args(argc, argv,
                         {"top", "json", "csv", "report", "timeline", "whatif",
                          "phase",
                          "threads", "max-rss-mb", "profile",
                          "salvage", "strictness", "deadline-ms",
                          "max-events", "diagnostics", "convert", "format",
                          "agg-store", "agg-run-id", "agg-host", "agg-label",
                          "version", "help"});
    if (args.has("help")) {
      print_usage(stdout, prog);
      return 0;
    }
    if (args.has("version")) {
      std::printf("cla-analyze %s (.clat formats v1-v%u)\n", CLA_VERSION_STRING,
                  cla::trace::kTraceVersionV3);
      return 0;
    }
    if (args.positional().empty()) {
      print_usage(stderr, prog);
      return 2;
    }

    if (const auto out_path = args.get("convert")) {
      std::uint32_t version = cla::trace::kTraceVersionV3;
      if (const auto format = args.get("format")) {
        if (!cla::trace::parse_trace_format(*format, version)) {
          throw cla::util::ArgsError("invalid --format value '" + *format +
                                     "' (expected v2 or v3; v1 is read-only)");
        }
      }
      cla::trace::convert_trace_file(args.positional().front(), *out_path,
                                     version);
      std::fprintf(stderr, "cla-analyze: converted %s -> %s (v%u)\n",
                   args.positional().front().c_str(), out_path->c_str(),
                   version);
      return 0;
    }
    if (args.has("format")) {
      throw cla::util::ArgsError("--format is only meaningful with --convert");
    }

    cla::Options options;
    options.execution.num_threads =
        static_cast<unsigned>(args.get_int("threads", 1));
    const std::int64_t max_rss_mb = args.get_int("max-rss-mb", 0);
    if (max_rss_mb < 0) {
      throw cla::util::ArgsError("--max-rss-mb must be non-negative");
    }
    options.limits.max_rss_mb = static_cast<std::uint64_t>(max_rss_mb);
    options.report.top_locks = static_cast<std::size_t>(args.get_int("top", 0));
    options.load.salvage = args.has("salvage");
    if (const auto mode = args.get("strictness")) {
      if (!cla::util::parse_strictness(*mode, options.strictness)) {
        throw cla::util::ArgsError("invalid --strictness value '" + *mode +
                                   "' (expected strict, repair or lenient)");
      }
    }
    const std::int64_t deadline_ms = args.get_int("deadline-ms", 0);
    const std::int64_t max_events = args.get_int("max-events", 0);
    if (deadline_ms < 0 || max_events < 0) {
      throw cla::util::ArgsError(
          "--deadline-ms / --max-events must be non-negative");
    }
    options.limits.deadline_ms = static_cast<std::uint64_t>(deadline_ms);
    options.limits.max_events = static_cast<std::uint64_t>(max_events);
    bool diagnostics_json = false;
    if (const auto fmt = args.get("diagnostics")) {
      if (*fmt != "json") {
        throw cla::util::ArgsError("invalid --diagnostics value '" + *fmt +
                                   "' (only 'json' is supported)");
      }
      diagnostics_json = true;
    }
    // Validate every value-carrying flag before any analysis runs: a
    // malformed --report/--whatif must exit 2 with nothing but usage on
    // the streams, not fail after minutes of pipeline work.
    const ReportFormat report_format = parse_report_format(args);
    std::optional<WhatifSpec> whatif;
    if (const auto spec = args.get("whatif")) whatif = parse_whatif(*spec);

    bool lossy_salvage = false;
    cla::Pipeline pipeline(options);
    if (args.has("phase")) {
      // Phase clipping writes a new trace: clip the view of the mapped (or
      // salvaged) file and hand the clip to the pipeline.
      const auto clip = [&](const cla::trace::TraceView& view) {
        pipeline.use_trace(cla::trace::clip_to_phase(
            view, static_cast<std::size_t>(args.get_int("phase", 0))));
      };
      if (options.load.salvage) {
        const cla::trace::SalvageResult salvaged =
            cla::trace::salvage_trace_file(args.positional().front());
        std::fputs(salvaged.report.to_string().c_str(), stderr);
        lossy_salvage = salvaged.report.lossy();
        clip(cla::trace::TraceView(salvaged.trace));
      } else {
        clip(cla::trace::MappedTrace(args.positional().front()).view());
      }
    } else {
      pipeline.load_file(args.positional().front());
      if (const auto& report = pipeline.salvage_report()) {
        std::fputs(report->to_string().c_str(), stderr);
        lossy_salvage = report->lossy();
      }
    }
    const std::uint64_t dropped = pipeline.view().dropped_events();
    if (dropped > 0) {
      std::fprintf(stderr,
                   "cla-analyze: warning: the recorder dropped %llu event(s) "
                   "at record time (buffers full or unwritable); totals are "
                   "lower bounds\n",
                   static_cast<unsigned long long>(dropped));
    }
    for (const auto& [code, value] : pipeline.view().runtime_warnings()) {
      // Pre-format the whole line and emit it with one write: stderr is
      // unbuffered, so a multi-conversion fprintf may interleave with
      // other processes sharing the stream mid-line.
      std::string line = "cla-analyze: runtime warning: ";
      line += cla::util::to_string(static_cast<cla::util::DiagCode>(code));
      line += " = ";
      line += std::to_string(value);
      line += '\n';
      std::fputs(line.c_str(), stderr);
    }

    if (diagnostics_json) {
      // Run the full analysis (fills the sink via validate/repair), then
      // emit the machine-readable diagnostics instead of the report.
      pipeline.result();
      std::cout << pipeline.diagnostics_json();
    } else if (report_format == ReportFormat::Json) {
      std::cout << pipeline.report_json();
    } else if (report_format == ReportFormat::Csv) {
      std::cout << cla::analysis::type1_table(pipeline.result(),
                                              options.report)
                       .to_csv()
                << '\n'
                << cla::analysis::type2_table(pipeline.result(),
                                              options.report)
                       .to_csv();
    } else if (report_format == ReportFormat::Html) {
      std::cout << pipeline.report_html();
    } else {
      std::cout << pipeline.report();
    }
    if (args.has("timeline")) {
      std::cout << '\n'
                << cla::analysis::render_timeline(pipeline.trace_index(),
                                                  pipeline.result().path);
    }
    if (whatif) {
      const std::string& lock = whatif->lock;
      const double factor = whatif->factor;
      const auto est =
          cla::analysis::estimate_shrink(pipeline.result(), lock, factor);
      std::printf(
          "\nwhat-if: shrinking %s's critical sections by %.0f%% saves at "
          "most %llu ns (upper bound <= %.3fx)\n",
          lock.c_str(), factor * 100.0,
          static_cast<unsigned long long>(est.saved_ns),
          est.predicted_speedup);
      if (pipeline.bounded()) {
        std::fprintf(stderr,
                     "cla-analyze: note: --whatif replay needs the full "
                     "index; under --max-rss-mb only the upper bound is "
                     "reported\n");
      } else {
        const auto replay = cla::analysis::replay_shrink(
            pipeline.segment_dag(), pipeline.trace_index(), lock, factor);
        std::printf(
            "what-if: DAG replay predicts %llu ns -> %llu ns "
            "(predicted speedup %.3fx across %llu checkpoints)\n",
            static_cast<unsigned long long>(replay.original_span_ns),
            static_cast<unsigned long long>(replay.predicted_span_ns),
            replay.predicted_speedup,
            static_cast<unsigned long long>(replay.checkpoints));
      }
    }
    if (args.has("profile")) {
      std::fputs(pipeline.profile().to_string().c_str(), stderr);
    }
    if (pipeline.repaired()) {
      std::fprintf(stderr,
                   "cla-analyze: warning: the trace was repaired "
                   "(--strictness=%s); results are approximate\n",
                   std::string(cla::util::to_string(options.strictness)).c_str());
    }
    if (const auto agg_dir = args.get("agg-store")) {
      // Persist the run summary after the report so a store problem can
      // never cost the user the analysis output. Store failures warn and
      // leave the exit code to the analysis contract; the store itself
      // counts what it could not keep.
      const std::string& trace_path = args.positional().front();
      const std::size_t slash = trace_path.find_last_of('/');
      const std::string base =
          slash == std::string::npos ? trace_path : trace_path.substr(slash + 1);
      cla::agg::RunMeta meta;
      meta.host = args.get_or("agg-host", cla::agg::local_host());
      meta.run_id = args.get_or("agg-run-id", meta.host + ":" + base);
      meta.label = args.get_or("agg-label", "");
      meta.events = pipeline.view().event_count();
      meta.dropped_events = dropped;
      try {
        cla::agg::AggStore store(*agg_dir,
                                 cla::agg::AggStore::Mode::ReadWrite);
        for (const auto& diagnostic : store.open_diagnostics()) {
          std::fprintf(stderr, "cla-analyze: agg-store warning: %s\n",
                       diagnostic.to_string().c_str());
        }
        if (!store.append(
                cla::agg::make_run_record(pipeline.result(), meta))) {
          std::fprintf(stderr,
                       "cla-analyze: warning: aggregation store append "
                       "failed (counted in the store)\n");
        }
      } catch (const cla::util::Error& e) {
        std::fprintf(stderr,
                     "cla-analyze: warning: aggregation store unusable: "
                     "%s\n",
                     e.what());
      }
    }
    // Dropped events make the report a lower bound even when the file
    // itself loaded cleanly (e.g. the recorder hit a full disk and
    // degraded to counted-drop mode) — same lossy contract as salvage.
    return (lossy_salvage || pipeline.repaired() || dropped > 0) ? 3 : 0;
  } catch (const cla::util::ArgsError& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    print_usage(stderr, prog);
    return 2;
  } catch (const cla::util::TraceIoError& e) {
    // Stable shape for tooling: the trace vanished or turned unreadable
    // mid-analysis (unlinked under us, ENOENT, EIO...).
    std::fprintf(stderr, "cla-analyze: [%s] %s\n",
                 std::string(cla::util::to_string(
                                 cla::util::DiagCode::CLA_E_TRACE_IO))
                     .c_str(),
                 e.what());
    return 1;
  } catch (const cla::util::ResourceLimitError& e) {
    std::fprintf(stderr, "cla-analyze: resource limit: %s\n", e.what());
    return 4;
  } catch (const cla::util::ValidationError& e) {
    std::fprintf(stderr, "cla-analyze: validation failed: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cla-analyze: %s\n", e.what());
    return 1;
  }
}

// cla-run: run a case-study workload and report its critical lock
// analysis (the full Fig. 3 workflow in one command).
//
// Usage:
//   cla-run <workload> [--threads N] [--backend sim|pthread] [--optimized]
//           [--seed S] [--scale X] [--param key=value ...]
//           [--top N] [--timeline] [--json] [--csv]
//           [--trace-out file.clat] [--analysis-threads N] [--profile]
//   cla-run --list
//   cla-run [supervision options] --exec <command> [args...]
//
// The --exec form supervises an arbitrary traced process: it forks the
// command under the LD_PRELOAD interposer, enforces --timeout-ms with
// SIGKILL, retries crashed/hung children (--retries, exponential
// --backoff-ms), and when the child ultimately dies it salvages and
// analyzes whatever partial trace survived (exit 3) instead of losing
// the run.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <errno.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "cla/core/cla.hpp"
#include "cla/util/args.hpp"
#include "cla/util/error.hpp"

#ifndef CLA_VERSION_STRING
#define CLA_VERSION_STRING "unknown"
#endif

namespace {

void print_usage(const char* prog, std::FILE* out = stdout) {
  std::fprintf(
      out,
      "usage: %s <workload> [options]\n"
      "       %s --list\n"
      "options:\n"
      "  --threads N       worker threads (default 4)\n"
      "  --backend B       sim | pthread (default sim)\n"
      "  --optimized       run the paper's optimized lock variant\n"
      "  --seed S          workload RNG seed (default 42)\n"
      "  --scale X         work-size multiplier (default 1.0)\n"
      "  --param k=v       workload-specific knob (repeatable via comma list)\n"
      "  --accelerate l=f  scale compute inside lock l's critical sections\n"
      "                    by factor f (<1 = faster; sim backend only)\n"
      "  --top N           show only the top-N locks\n"
      "  --timeline        print the ASCII execution timeline\n"
      "  --json            print the JSON report instead of text\n"
      "  --csv             print TYPE1/TYPE2 tables as CSV\n"
      "  --trace-out FILE  also write the trace to FILE (.clat)\n"
      "  --format F        .clat version for --trace-out: v2 | v3\n"
      "                    (default v2; v3 is the compact varint format)\n"
      "  --analysis-threads N  worker threads for the analysis pipeline's\n"
      "                    index/stats stages (default 1, 0 = per core)\n"
      "  --profile         print the analysis per-stage timing to stderr\n"
      "  --version         print the tool version and supported .clat range\n"
      "supervised execution (everything after --exec is the command):\n"
      "  %s [options] --exec <command> [args...]\n"
      "  --trace FILE      trace file the child writes (default\n"
      "                    cla_run_trace.clat)\n"
      "  --preload LIB     LD_PRELOAD library injected into the child\n"
      "                    (default: keep the inherited environment)\n"
      "  --buffer-events N per-thread stream buffer size for the child\n"
      "  --ring-bytes N    cap the child's trace file at N bytes; the\n"
      "                    oldest chunks are retired as counted loss\n"
      "  --timeout-ms N    SIGKILL the child after N ms (0 = no timeout)\n"
      "  --retries N       re-run a crashed or timed-out child up to N times\n"
      "  --backoff-ms N    initial retry backoff, doubled per attempt\n"
      "                    (default 200)\n"
      "  exit: 0 clean analysis; 1 child failed normally or analysis\n"
      "  error; 3 child crashed/hung -- partial trace salvaged+analyzed\n",
      prog, prog, prog);
}

std::int64_t monotonic_ms() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void sleep_ms(std::int64_t ms) {
  struct timespec nap;
  nap.tv_sec = ms / 1000;
  nap.tv_nsec = (ms % 1000) * 1000000;
  while (::nanosleep(&nap, &nap) != 0 && errno == EINTR) {
  }
}

enum class ChildOutcome { CleanExit, NonZeroExit, Crashed, Timeout, SpawnFailed };

struct SuperviseConfig {
  std::string trace = "cla_run_trace.clat";
  std::string preload;
  std::string format;
  std::int64_t buffer_events = 0;
  std::int64_t ring_bytes = 0;
  std::int64_t timeout_ms = 0;
  std::int64_t retries = 0;
  std::int64_t backoff_ms = 200;
};

/// Forks and execs the supervised command once. `exit_code`/`term_signal`
/// report how it ended; a timeout kill is reported as Timeout even though
/// the wait status says SIGKILL.
ChildOutcome run_child_once(char* const* child_argv,
                            const SuperviseConfig& config, int& exit_code,
                            int& term_signal) {
  exit_code = 0;
  term_signal = 0;
  const pid_t pid = ::fork();
  if (pid < 0) return ChildOutcome::SpawnFailed;
  if (pid == 0) {
    ::setenv("CLA_TRACE_FILE", config.trace.c_str(), 1);
    if (!config.format.empty()) {
      ::setenv("CLA_TRACE_FORMAT", config.format.c_str(), 1);
    }
    if (config.buffer_events > 0) {
      ::setenv("CLA_BUFFER_EVENTS",
               std::to_string(config.buffer_events).c_str(), 1);
    }
    if (config.ring_bytes > 0) {
      ::setenv("CLA_TRACE_MAX_BYTES",
               std::to_string(config.ring_bytes).c_str(), 1);
    }
    if (!config.preload.empty()) {
      ::setenv("LD_PRELOAD", config.preload.c_str(), 1);
    }
    ::execvp(child_argv[0], child_argv);
    std::fprintf(stderr, "cla-run: exec %s: %s\n", child_argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  const std::int64_t deadline =
      config.timeout_ms > 0 ? monotonic_ms() + config.timeout_ms : 0;
  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFEXITED(status)) {
        exit_code = WEXITSTATUS(status);
        if (killed) return ChildOutcome::Timeout;
        return exit_code == 0 ? ChildOutcome::CleanExit
                              : ChildOutcome::NonZeroExit;
      }
      if (WIFSIGNALED(status)) {
        term_signal = WTERMSIG(status);
        return killed ? ChildOutcome::Timeout : ChildOutcome::Crashed;
      }
      continue;  // stopped/continued: keep waiting
    }
    if (r < 0 && errno != EINTR) {
      ::kill(pid, SIGKILL);
      return ChildOutcome::SpawnFailed;
    }
    if (deadline != 0 && !killed && monotonic_ms() >= deadline) {
      std::fprintf(stderr,
                   "cla-run: child %d exceeded --timeout-ms %lld, killing\n",
                   static_cast<int>(pid),
                   static_cast<long long>(config.timeout_ms));
      ::kill(pid, SIGKILL);
      killed = true;
    }
    sleep_ms(5);
  }
}

/// Analyzes the (possibly partial) trace the supervised child produced.
/// A crashed child additionally gets the salvage loader; repair
/// strictness applies either way -- a torn tail or a fault-degraded
/// recording routinely leaves open critical sections that strict mode
/// would refuse, and the supervisor's contract is to always deliver a
/// report (flagged lossy via exit 3) rather than an error.
int analyze_supervised_trace(const std::string& path, bool crashed) {
  cla::Options options;
  options.load.salvage = crashed;
  options.strictness = cla::util::Strictness::Repair;
  cla::Pipeline pipeline(options);
  pipeline.load_file(path);
  bool lossy = crashed;
  if (const auto& report = pipeline.salvage_report()) {
    std::fputs(report->to_string().c_str(), stderr);
    lossy = lossy || report->lossy();
  }
  std::cout << pipeline.report();
  lossy = lossy || pipeline.repaired() || pipeline.view().dropped_events() > 0;
  return lossy ? 3 : 0;
}

int run_supervised(int exec_index, int /*argc*/, char** argv,
                   char* const* child_argv, int child_argc) {
  cla::util::Args args(exec_index, argv,
                       {"trace", "preload", "format", "buffer-events",
                        "ring-bytes", "timeout-ms", "retries", "backoff-ms",
                        "help"});
  if (args.has("help")) {
    print_usage(argv[0]);
    return 0;
  }
  if (child_argc == 0) {
    throw cla::util::ArgsError("--exec requires a command to run");
  }
  if (!args.positional().empty()) {
    throw cla::util::ArgsError("unexpected positional argument '" +
                               args.positional().front() +
                               "' before --exec");
  }
  SuperviseConfig config;
  config.trace = args.get_or("trace", config.trace);
  config.preload = args.get_or("preload", "");
  config.format = args.get_or("format", "");
  config.buffer_events = args.get_int("buffer-events", 0);
  config.ring_bytes = args.get_int("ring-bytes", 0);
  if (config.ring_bytes < 0) {
    throw cla::util::ArgsError("--ring-bytes must be non-negative");
  }
  config.timeout_ms = args.get_int("timeout-ms", 0);
  config.retries = args.get_int("retries", 0);
  config.backoff_ms = args.get_int("backoff-ms", 200);
  if (config.timeout_ms < 0 || config.retries < 0 || config.backoff_ms < 0) {
    throw cla::util::ArgsError(
        "--timeout-ms / --retries / --backoff-ms must be non-negative");
  }

  const std::int64_t attempts = config.retries + 1;
  bool crashed = false;
  for (std::int64_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const std::int64_t backoff = config.backoff_ms << (attempt - 1);
      std::fprintf(stderr,
                   "cla-run: retrying in %lld ms (attempt %lld of %lld)\n",
                   static_cast<long long>(backoff),
                   static_cast<long long>(attempt + 1),
                   static_cast<long long>(attempts));
      sleep_ms(backoff);
    }
    int exit_code = 0;
    int term_signal = 0;
    const ChildOutcome outcome =
        run_child_once(child_argv, config, exit_code, term_signal);
    switch (outcome) {
      case ChildOutcome::CleanExit:
        return analyze_supervised_trace(config.trace, /*crashed=*/false);
      case ChildOutcome::NonZeroExit:
        // A deliberate failure exit is the application's business --
        // retrying would re-run side effects for nothing.
        std::fprintf(stderr, "cla-run: child exited with status %d\n",
                     exit_code);
        return 1;
      case ChildOutcome::SpawnFailed:
        std::fprintf(stderr, "cla-run: failed to spawn child: %s\n",
                     std::strerror(errno));
        return 1;
      case ChildOutcome::Crashed:
        std::fprintf(stderr, "cla-run: child killed by signal %d (%s)\n",
                     term_signal, ::strsignal(term_signal));
        crashed = true;
        break;
      case ChildOutcome::Timeout:
        std::fprintf(stderr, "cla-run: child timed out\n");
        crashed = true;
        break;
    }
  }
  // Every attempt crashed or hung: recover what the interposer managed
  // to spill before dying.
  std::fprintf(
      stderr,
      "cla-run: child failed on all %lld attempt(s); salvaging partial "
      "trace %s\n",
      static_cast<long long>(attempts), config.trace.c_str());
  const int rc = analyze_supervised_trace(config.trace, /*crashed=*/true);
  (void)crashed;
  return rc == 0 ? 3 : rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Everything after a literal `--exec` is the supervised command and
    // must not be parsed as cla-run options.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--exec") == 0) {
        return run_supervised(i, argc, argv, argv + i + 1, argc - i - 1);
      }
    }
    cla::util::Args args(argc, argv,
                         {"threads", "backend", "optimized", "seed", "scale",
                          "param", "accelerate", "top", "timeline", "json",
                          "csv", "trace-out", "format", "analysis-threads",
                          "profile", "list", "version", "help"});
    if (args.has("help")) {
      print_usage(argv[0]);
      return 0;
    }
    if (args.has("version")) {
      std::printf("cla-run %s (.clat formats v1-v%u)\n", CLA_VERSION_STRING,
                  cla::trace::kTraceVersionV3);
      return 0;
    }
    if (args.has("list")) {
      for (const auto& info : cla::workloads::list_workloads()) {
        std::printf("%-12s %s\n", info.name.c_str(), info.description.c_str());
      }
      return 0;
    }
    if (args.positional().empty()) {
      print_usage(argv[0], stderr);
      return 2;
    }
    if (args.has("format") && !args.has("trace-out")) {
      throw cla::util::ArgsError("--format is only meaningful with --trace-out");
    }
    std::uint32_t trace_version = cla::trace::kTraceVersion;
    if (const auto format = args.get("format")) {
      if (!cla::trace::parse_trace_format(*format, trace_version)) {
        throw cla::util::ArgsError("invalid --format value '" + *format +
                                   "' (expected v2 or v3; v1 is read-only)");
      }
    }

    cla::workloads::WorkloadConfig config;
    config.threads = static_cast<std::uint32_t>(args.get_int("threads", 4));
    config.backend = args.get_or("backend", "sim");
    config.optimized = args.has("optimized");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    config.scale = args.get_double("scale", 1.0);
    auto parse_pairs = [](const std::string& list, const char* option,
                          std::map<std::string, double>& out) {
      std::string rest = list;
      while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string pair = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        const auto eq = pair.find('=');
        CLA_CHECK(eq != std::string::npos,
                  std::string(option) + " expects k=v, got " + pair);
        out[pair.substr(0, eq)] = std::stod(pair.substr(eq + 1));
      }
    };
    if (auto params = args.get("param")) {
      parse_pairs(*params, "--param", config.params);
    }
    if (auto accel = args.get("accelerate")) {
      // e.g. --accelerate "tq[0].qlock=0.5" (SVII accelerated critical
      // sections; honoured by the sim backend).
      parse_pairs(*accel, "--accelerate", config.accelerate);
    }

    cla::Options options;
    options.execution.num_threads =
        static_cast<unsigned>(args.get_int("analysis-threads", 1));
    options.report.top_locks = static_cast<std::size_t>(args.get_int("top", 0));

    const std::string workload = args.positional().front();
    const auto [run, result, profile] =
        cla::run_and_analyze(workload, config, options);

    std::printf("workload: %s  threads=%u backend=%s%s seed=%llu\n",
                workload.c_str(), config.threads, config.backend.c_str(),
                config.optimized ? " (optimized)" : "",
                static_cast<unsigned long long>(config.seed));
    std::printf("completion time: %llu ns, events: %zu\n\n",
                static_cast<unsigned long long>(run.completion_time),
                run.trace.event_count());

    const cla::analysis::ReportOptions& report_options = options.report;

    if (args.has("json")) {
      std::cout << cla::analysis::render_json(result);
    } else if (args.has("csv")) {
      std::cout << cla::analysis::type1_table(result, report_options).to_csv()
                << '\n'
                << cla::analysis::type2_table(result, report_options).to_csv();
    } else {
      std::cout << cla::analysis::render_report(result, report_options);
    }

    if (args.has("timeline")) {
      const cla::analysis::TraceIndex index(run.trace);
      std::cout << '\n'
                << cla::analysis::render_timeline(index, result.path);
    }
    if (auto path = args.get("trace-out")) {
      cla::trace::write_trace_file(run.trace, *path, trace_version);
      std::printf("\ntrace written to %s (v%u)\n", path->c_str(),
                  trace_version);
    }
    if (args.has("profile")) {
      std::fputs(profile.to_string().c_str(), stderr);
    }
    return 0;
  } catch (const cla::util::ArgsError& e) {
    std::fprintf(stderr, "cla-run: %s\n", e.what());
    print_usage(argv[0], stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cla-run: %s\n", e.what());
    return 1;
  }
}

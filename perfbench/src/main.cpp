// perfbench: the CLA end-to-end benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--spans-out FILE] [--size tiny] [--break KIND]
//   perfbench --build-info
//
// Runs one workload for S seconds and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (from spans around each layer
// call) with --trace 1. run.py builds this program and drives it; see
// README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of both lists; keep them in step
// with BENCHMARK.json (the self-test compares the two).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"relative_latency_p50", "x"},
    {"relative_latency_p90", "x"},
    {"peak_rss_mb", "MiB"},
    {"trace_bytes_per_event", "B"},
};

constexpr MetricSpec kPerLayer[] = {
    {"util.now_ns", "ns"},
    {"runtime.record_ns", "ns"},
    {"runtime.mutex_roundtrip_ns", "ns"},
    {"trace.write_ns_per_event", "ns"},
    {"runtime.cpu_ns_per_event", "ns"},
    {"runtime.ctx_switches_per_kevent", "count"},
    {"runtime.events", "count"},
    {"runtime.dropped", "count"},
    {"runtime.missing", "count"},
    {"runtime.io_retries", "count"},
    {"trace.load_ns", "ns"},
    {"trace.load_rss_mb", "MiB"},
    {"analysis.validate_ns", "ns"},
    {"analysis.index_ns", "ns"},
    {"analysis.builddag_ns", "ns"},
    {"analysis.walk_ns", "ns"},
    {"analysis.stats_ns", "ns"},
    {"analysis.report_ns", "ns"},
    {"analysis.segments", "count"},
    {"analysis.speculation_useful", "ratio"},
    {"agg.append_ns", "ns"},
    {"agg.merge_ns", "ns"},
    {"trace.live_write_ns", "ns"},
    {"trace.tail_poll_ns", "ns"},
    {"analysis.refresh_ns", "ns"},
    {"analysis.refresh_growth", "x"},
    {"analysis.live_total_vs_batch", "x"},
    {"analysis.windows_shed", "count"},
    {"trace.tail_io_errors", "count"},
    {"target.self_ms", "ms"},
    {"runtime.self_ms", "ms"},
    {"trace.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"agg.self_ms", "ms"},
    {"util.self_ms", "ms"},
    {"reference.self_ms", "ms"},
    {"tracing.overhead_ms", "ms"},
    {"bench.latency_ms_p50", "ms"},
    {"bench.latency_ms_p90", "ms"},
    {"bench.reference_ms", "ms"},
    {"bench.mev_per_s", "Mev/s"},
    {"bench.samples", "count"},
};

constexpr const char* kLayers[] = {"target",   "runtime", "trace",    "analysis",
                                   "agg",      "util",    "reference"};

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZE[0] != '\0';
#endif
}

bool ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

void print_build_info() {
  std::printf(
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"sanitize\": %s, "
      "\"ndebug\": %s}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sanitized() ? "true" : "false",
      ndebug() ? "true" : "false");
}

/// Adds the layer self times and the unattributed remainder to the
/// per-layer metrics, and a one-line account of the traced wall time to
/// the notes.
void account_spans(const Tracer& tracer, Result& result) {
  const auto self = tracer.self_ns_by_layer();
  double wall_ns = 0;
  for (const auto& [layer, ns] : self) wall_ns += ns;
  char part[128];
  std::snprintf(part, sizeof part, "spans: wall %.1f ms =", wall_ns / 1e6);
  std::string line = part;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0 : it->second / 1e6;
    result.per_layer[std::string(layer) + ".self_ms"] = ms;
    std::snprintf(part, sizeof part, " %s %.1f", layer, ms);
    line += part;
  }
  const auto bench = self.find("bench");
  const double other_ms = bench == self.end() ? 0 : bench->second / 1e6;
  result.per_layer["tracing.overhead_ms"] = other_ms;
  std::snprintf(part, sizeof part, " + unattributed (tracing, benchmark glue) %.1f", other_ms);
  line += part;
  result.notes.push_back(line);
}

void print_result(bool correct, const Result& result, const MetricSpec* begin,
                  const MetricSpec* end, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m == begin ? "" : ", ",
                m->name, it == values.end() ? 0.0 : it->second, m->unit);
  }
  std::printf("}}\n");
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload record-taskq|live-ldap --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE] "
               "[--size tiny] [--break report-byte|lock-count|last-round]\n"
               "       %s --build-info\n",
               prog, prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool trace = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--build-info") {
      print_build_info();
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else if (arg == "--size" && value == "tiny") {
      config.size = Size::Tiny;
    } else if (arg == "--break" && value == "report-byte") {
      config.breakage = Breakage::ReportByte;
    } else if (arg == "--break" && value == "lock-count") {
      config.breakage = Breakage::LockCount;
    } else if (arg == "--break" && value == "last-round") {
      config.breakage = Breakage::LastRound;
    } else {
      return usage(argv[0]);
    }
  }
  WorkloadFn run = nullptr;
  if (config.workload == "record-taskq") run = run_record_taskq;
  if (config.workload == "live-ldap") run = run_live_ldap;
  if (run == nullptr || config.work_dir.empty() || !(config.seconds > 0)) {
    return usage(argv[0]);
  }

  Tracer tracer(trace);
  Result result;
  try {
    std::filesystem::create_directories(config.work_dir);
    result = run(config, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(), e.what());
    return 1;
  }
  if (trace) {
    account_spans(tracer, result);
    if (!spans_out.empty()) tracer.write_jsonl(spans_out);
  }
  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  const bool correct = result.attempted > 0 && result.failed == 0;
  if (trace) {
    print_result(correct, result, std::begin(kPerLayer), std::end(kPerLayer),
                 result.per_layer);
  } else {
    print_result(correct, result, std::begin(kEndToEnd), std::end(kEndToEnd),
                 result.end_to_end);
  }
  return 0;
}

// bench_analysis_core: throughput and memory of the analysis core across
// its execution engines — the perf record for the segment-DAG redesign
// (ROADMAP: parallel critical-path walk, incremental append, bounded RSS).
//
// For each workload the same in-memory trace is analyzed through:
//
//   dag-1        segment-DAG build + DAG walk, 1 analysis thread
//   dag-8        segment-DAG build + DAG walk, 8 analysis threads
//   incremental  IncrementalAnalyzer fed the trace in 8 appends
//   streaming    bounded-RSS engine (--max-rss equivalent) end-to-end
//
// Reported per variant: best-of-N wall time, events/s, and peak RSS
// delta (Linux VmHWM, reset per variant via /proc/self/clear_refs; 0 when
// unsupported). All engines produce byte-identical reports — that is
// pinned by the determinism suite, not re-checked here. Results land in
// BENCH_analysis_core.json (see EXPERIMENTS.md). Numbers are whatever the
// current box gives: on a single-core machine dag-8 shows no speedup and
// that is recorded as-is.
//
// Usage: bench_analysis_core [--smoke] [--iterations N] [--out FILE.json]
//   --smoke       1 iteration, small workloads (CI wiring check)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/util/clock.hpp"
#include "cla/workloads/workload.hpp"

namespace {

/// Resets the kernel's peak-RSS watermark for this process (Linux only;
/// silently a no-op elsewhere, in which case deltas read as 0).
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Current peak RSS (VmHWM) in bytes, 0 if unavailable.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

struct VariantResult {
  std::string name;
  std::uint64_t best_ns = 0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss = 0;        ///< max VmHWM over the iterations
  std::uint64_t engine_bytes = 0;    ///< streaming engine's own accounting
};

struct WorkloadResultRow {
  std::string workload;
  std::uint64_t events = 0;
  std::vector<VariantResult> variants;
};

VariantResult run_pipeline_variant(const std::string& name,
                                   const cla::trace::Trace& trace,
                                   unsigned workers, std::uint64_t max_rss_mb,
                                   int iterations) {
  VariantResult r;
  r.name = name;
  r.best_ns = ~0ull;
  for (int i = 0; i < iterations; ++i) {
    cla::analysis::Options options;
    options.execution.num_threads = workers;
    options.limits.max_rss_mb = max_rss_mb;
    reset_peak_rss();
    cla::analysis::Pipeline pipeline(options);
    const std::uint64_t start = cla::util::now_ns();
    pipeline.use_trace(trace);
    (void)pipeline.result();
    r.best_ns = std::min(r.best_ns, cla::util::now_ns() - start);
    r.peak_rss = std::max(r.peak_rss, peak_rss_bytes());
    r.engine_bytes = std::max(r.engine_bytes, pipeline.streaming_peak_bytes());
  }
  r.events_per_sec = r.best_ns > 0
                         ? static_cast<double>(trace.event_count()) * 1e9 /
                               static_cast<double>(r.best_ns)
                         : 0.0;
  return r;
}

VariantResult run_incremental_variant(const cla::trace::Trace& trace,
                                      int iterations) {
  constexpr int kRounds = 8;
  VariantResult r;
  r.name = "incremental";
  r.best_ns = ~0ull;

  // Pre-split once: kRounds chunks, proportional per-thread cuts.
  std::vector<cla::trace::Trace> chunks(kRounds);
  for (const auto& [id, name] : trace.object_names()) {
    chunks[0].set_object_name(id, name);
  }
  for (const auto& [tid, name] : trace.thread_names()) {
    chunks[0].set_thread_name(tid, name);
  }
  for (cla::trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    std::size_t done = 0;
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t until = events.size() * (round + 1) / kRounds;
      chunks[round].append_thread_events(tid,
                                         events.subspan(done, until - done));
      done = until;
    }
  }

  for (int i = 0; i < iterations; ++i) {
    cla::analysis::Options options;
    options.validate = false;  // mid-stream chunks have no clean exits
    reset_peak_rss();
    const std::uint64_t start = cla::util::now_ns();
    cla::analysis::IncrementalAnalyzer inc(options);
    for (const auto& chunk : chunks) {
      inc.append(chunk);
      (void)inc.result();  // a full round per append, as a live tail would
    }
    r.best_ns = std::min(r.best_ns, cla::util::now_ns() - start);
    r.peak_rss = std::max(r.peak_rss, peak_rss_bytes());
  }
  r.events_per_sec = r.best_ns > 0
                         ? static_cast<double>(trace.event_count()) * 1e9 /
                               static_cast<double>(r.best_ns)
                         : 0.0;
  return r;
}

WorkloadResultRow bench_workload(const std::string& workload,
                                 std::uint32_t threads, double scale,
                                 int iterations) {
  cla::workloads::WorkloadConfig config;
  config.threads = threads;
  config.scale = scale;
  const cla::trace::Trace trace =
      cla::workloads::run_workload(workload, config).trace;

  WorkloadResultRow row;
  row.workload = workload;
  row.events = trace.event_count();
  row.variants.push_back(run_pipeline_variant("dag-1", trace, 1, 0, iterations));
  row.variants.push_back(run_pipeline_variant("dag-8", trace, 8, 0, iterations));
  row.variants.push_back(run_incremental_variant(trace, iterations));
  row.variants.push_back(
      run_pipeline_variant("streaming", trace, 1, 4096, iterations));

  std::printf("\n%s: %llu events\n", workload.c_str(),
              static_cast<unsigned long long>(row.events));
  std::printf("  %-12s %12s %10s %12s %14s\n", "variant", "analysis ms",
              "Mevents/s", "peak RSS MB", "engine MB");
  for (const auto& v : row.variants) {
    std::printf("  %-12s %12.3f %10.2f %12.1f %14.2f\n", v.name.c_str(),
                static_cast<double>(v.best_ns) / 1e6, v.events_per_sec / 1e6,
                static_cast<double>(v.peak_rss) / (1024.0 * 1024.0),
                static_cast<double>(v.engine_bytes) / (1024.0 * 1024.0));
  }
  return row;
}

void append_json(std::string& out, const WorkloadResultRow& row, bool last) {
  char buf[256];
  out += "    {\"workload\": \"" + row.workload + "\", \"events\": " +
         std::to_string(row.events) + ", \"variants\": [\n";
  for (std::size_t i = 0; i < row.variants.size(); ++i) {
    const auto& v = row.variants[i];
    std::snprintf(buf, sizeof buf,
                  "      {\"name\": \"%s\", \"analysis_ns\": %llu, "
                  "\"events_per_sec\": %.0f, \"peak_rss_bytes\": %llu, "
                  "\"engine_peak_bytes\": %llu}%s\n",
                  v.name.c_str(), static_cast<unsigned long long>(v.best_ns),
                  v.events_per_sec,
                  static_cast<unsigned long long>(v.peak_rss),
                  static_cast<unsigned long long>(v.engine_bytes),
                  i + 1 < row.variants.size() ? "," : "");
    out += buf;
  }
  out += last ? "    ]}\n" : "    ]},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int iterations = 5;
  std::string out_path = "BENCH_analysis_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--iterations N] [--out FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) iterations = 1;
  const std::uint32_t threads = smoke ? 4 : 16;
  const double scale = smoke ? 0.2 : 1.0;

  std::printf("analysis-core engine throughput (best of %d)\n", iterations);
  std::vector<WorkloadResultRow> rows;
  rows.push_back(bench_workload("tsp", threads, scale, iterations));
  rows.push_back(bench_workload("radiosity", threads, scale, iterations));

  std::string json = "{\n  \"bench\": \"analysis_core\", \"iterations\": " +
                     std::to_string(iterations) + ", \"smoke\": " +
                     (smoke ? std::string("true") : std::string("false")) +
                     ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i)
    append_json(json, rows[i], i + 1 == rows.size());
  json += "  ]\n}\n";
  std::ofstream out(out_path, std::ios::binary);
  out << json;
  std::printf("\nresults written to %s\n", out_path.c_str());
  return 0;
}

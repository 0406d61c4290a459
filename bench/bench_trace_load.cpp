// bench_trace_load: load+index throughput across trace encodings — the
// perf baseline for the zero-copy loader (ROADMAP: "runs as fast as the
// hardware allows").
//
// For each workload (radiosity, ldap) the same recorded trace is written
// as v2 (raw chunks) and v3 (compact varint), then loaded and indexed
// through Pipeline::load_file:
//
//   v2   mmap + in-place AoS view
//   v3   mmap + one-shot columnar (SoA) decode
//
// Reported per variant: best-of-N load+index wall time, events/s, and
// on-disk bytes/event. Results land in BENCH_trace_load.json (see
// EXPERIMENTS.md) so the perf trajectory is tracked across PRs.
//
// Usage: bench_trace_load [--smoke] [--iterations N] [--out FILE.json]
//   --smoke       1 iteration, small workloads (CI wiring check)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"
#include "cla/workloads/workload.hpp"

namespace {

struct VariantResult {
  std::string name;
  std::uint64_t file_bytes = 0;
  std::uint64_t best_ns = 0;
  double events_per_sec = 0.0;
  double bytes_per_event = 0.0;
};

struct WorkloadResultRow {
  std::string workload;
  std::uint64_t events = 0;
  std::vector<VariantResult> variants;
};

std::uint64_t time_load_index(const std::string& path, int iterations) {
  std::uint64_t best = ~0ull;
  for (int i = 0; i < iterations; ++i) {
    cla::analysis::Options options;
    options.validate = false;  // isolate load+index
    cla::analysis::Pipeline pipeline(options);
    const std::uint64_t start = cla::util::now_ns();
    pipeline.load_file(path);
    pipeline.index_stage();
    const std::uint64_t elapsed = cla::util::now_ns() - start;
    best = std::min(best, elapsed);
  }
  return best;
}

VariantResult run_variant(const std::string& name, const std::string& path,
                          std::uint64_t events, int iterations) {
  VariantResult r;
  r.name = name;
  r.file_bytes = std::filesystem::file_size(path);
  r.best_ns = time_load_index(path, iterations);
  r.events_per_sec = r.best_ns > 0 ? static_cast<double>(events) * 1e9 /
                                         static_cast<double>(r.best_ns)
                                   : 0.0;
  r.bytes_per_event =
      events > 0 ? static_cast<double>(r.file_bytes) / static_cast<double>(events)
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

  const auto dir = std::filesystem::temp_directory_path();
  const std::string v2 = (dir / ("bench_load_" + workload + "_v2.clat")).string();
  const std::string v3 = (dir / ("bench_load_" + workload + "_v3.clat")).string();
  cla::trace::write_trace_file(trace, v2, cla::trace::kTraceVersion);
  cla::trace::write_trace_file(trace, v3, cla::trace::kTraceVersionV3);

  WorkloadResultRow row;
  row.workload = workload;
  row.events = trace.event_count();
  row.variants.push_back(run_variant("v2", v2, row.events, iterations));
  row.variants.push_back(run_variant("v3", v3, row.events, iterations));

  std::printf("\n%s: %llu events\n", workload.c_str(),
              static_cast<unsigned long long>(row.events));
  std::printf("  %-8s %12s %12s %14s %10s\n", "variant", "file bytes",
              "bytes/event", "load+index ms", "Mevents/s");
  for (const auto& v : row.variants) {
    std::printf("  %-8s %12llu %12.2f %14.3f %10.2f\n", v.name.c_str(),
                static_cast<unsigned long long>(v.file_bytes),
                v.bytes_per_event, static_cast<double>(v.best_ns) / 1e6,
                v.events_per_sec / 1e6);
  }

  std::filesystem::remove(v2);
  std::filesystem::remove(v3);
  return row;
}

void append_json(std::string& out, const WorkloadResultRow& row, bool last) {
  char buf[256];
  out += "    {\"workload\": \"" + row.workload + "\", \"events\": " +
         std::to_string(row.events) + ", \"variants\": [\n";
  for (std::size_t i = 0; i < row.variants.size(); ++i) {
    const auto& v = row.variants[i];
    std::snprintf(buf, sizeof buf,
                  "      {\"name\": \"%s\", \"file_bytes\": %llu, "
                  "\"bytes_per_event\": %.3f, \"load_index_ns\": %llu, "
                  "\"events_per_sec\": %.0f}%s\n",
                  v.name.c_str(), static_cast<unsigned long long>(v.file_bytes),
                  v.bytes_per_event, static_cast<unsigned long long>(v.best_ns),
                  v.events_per_sec, i + 1 < row.variants.size() ? "," : "");
    out += buf;
  }
  out += last ? "    ]}\n" : "    ]},\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int iterations = 5;
  std::string out_path = "BENCH_trace_load.json";
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

  std::printf("trace load+index throughput (best of %d)\n", iterations);
  std::vector<WorkloadResultRow> rows;
  rows.push_back(bench_workload("radiosity", threads, scale, iterations));
  rows.push_back(bench_workload("ldap", threads, scale, iterations));

  std::string json = "{\n  \"bench\": \"trace_load\", \"iterations\": " +
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

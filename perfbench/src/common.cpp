#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

/// A "Key:   N kB" field of /proc/self/status, in MiB (0 if absent).
double status_field_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

ReferenceJob::ReferenceJob(std::uint64_t gathers)
    : gathers_(gathers), table_(std::size_t{1} << 24) {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
}

double ReferenceJob::run_ns() {
  const auto start = Clock::now();
  std::uint64_t x = 1, acc = 0;
  const std::size_t mask = table_.size() - 1;
  for (std::uint64_t i = 0; i < gathers_; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc = (acc ^ table_[(x >> 24) & mask]) * 31;
  }
  const double ns = ns_since(start);
  if (acc == 42) std::puts("");  // keep the reads observable
  return ns;
}

void report_latency(const std::vector<double>& op_ns,
                    const std::vector<double>& reference_ns, Result& result) {
  std::vector<double> relative;
  for (std::size_t i = 0; i < op_ns.size() && i < reference_ns.size(); ++i) {
    relative.push_back(op_ns[i] / reference_ns[i]);
  }
  result.end_to_end["relative_latency_p50"] = median(relative);
  result.end_to_end["relative_latency_p90"] = percentile(relative, 90);
  result.per_layer["bench.latency_ms_p50"] = median(op_ns) / 1e6;
  result.per_layer["bench.latency_ms_p90"] = percentile(op_ns, 90) / 1e6;
  result.per_layer["bench.reference_ms"] = median(reference_ns) / 1e6;
  result.per_layer["bench.samples"] = static_cast<double>(relative.size());
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() { return status_field_mb("VmHWM"); }

double current_rss_mb() { return status_field_mb("VmRSS"); }

}  // namespace perfbench

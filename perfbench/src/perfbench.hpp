// Shared declarations of the perfbench program: run configuration, result
// shape, statistics and process-memory helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Input sizes: the benchmark proper, or the self-test's tiny variant.
enum class Size { Full, Tiny };

/// A deliberate fault for the self-test to prove a correctness check fires.
enum class Breakage {
  None,
  ReportByte,    ///< live-ldap: one byte of the reference report flipped
  LockCount,     ///< record-taskq: one expected lock count off by one
  LastRound,     ///< live-ldap: the last round is written short
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  Size size = Size::Full;
  Breakage breakage = Breakage::None;
  std::filesystem::path work_dir;  ///< working files of this run
};

/// What a workload reports. `end_to_end` must hold every metric of
/// kEndToEnd; `per_layer` may omit a metric the workload does not drive
/// (main() reports it as 0).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> notes;  ///< human-readable summary lines
};

using WorkloadFn = Result (*)(const Config&, Tracer&);
Result run_record_taskq(const Config& config, Tracer& tracer);
Result run_live_ldap(const Config& config, Tracer& tracer);

// ---- timing --------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// True while a measured loop should go on: until `seconds` have passed
/// and at least 100 samples were taken, so that ten lie beyond p90 —
/// but never past twice the time budget.
inline bool keep_measuring(Clock::time_point start, double seconds,
                           std::size_t samples) {
  const double elapsed = seconds_since(start);
  return elapsed < seconds || (samples < 100 && elapsed < 2 * seconds);
}

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

// ---- drift reference -------------------------------------------------------

/// A fixed job of the benchmark's own, timed right after each measured
/// operation. The machine's speed drifts by 10-25% over tens of seconds
/// when other tenants share its cores and memory; the drift slows this job
/// as it slows the operation, so op / reference keeps far less of it than
/// the raw time does. The job makes `gathers` random reads from a 64 MiB
/// table on the calling thread (memory-bound, like trace analysis).
class ReferenceJob {
 public:
  explicit ReferenceJob(std::uint64_t gathers);
  /// Runs the job once; returns its wall time in ns.
  double run_ns();
  /// Resident memory the job's table adds to the process, in MiB.
  double footprint_mb() const {
    return static_cast<double>(table_.size() * sizeof(table_[0])) / (1 << 20);
  }

 private:
  std::uint64_t gathers_;
  std::vector<std::uint32_t> table_;
};

/// Reports a workload's operation latencies: relative_latency_p50/p90
/// (end to end; each operation's time over the reference run right next
/// to it) and the raw bench.latency_ms_p50/p90 and bench.reference_ms
/// (per layer; they carry the machine's drift).
void report_latency(const std::vector<double>& op_ns,
                    const std::vector<double>& reference_ns, Result& result);

// ---- process memory (Linux /proc) ----------------------------------------

/// Resets the peak-RSS watermark (VmHWM) to the current RSS.
void reset_peak_rss();
/// Peak resident set size since the last reset, in MiB.
double peak_rss_mb();
/// Current resident set size, in MiB.
double current_rss_mb();

/// Runs `setup` three times and returns the median wall time in seconds;
/// the last call's state is what the workload then measures on.
template <typename Fn>
double timed_setup(Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

}  // namespace perfbench

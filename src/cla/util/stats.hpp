// Small statistics helpers used by reports and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cla::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< sample variance (n-1 denominator)
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation between closest ranks).
/// `q` in [0,1]. Sorts a copy; intended for report-time use, not hot paths.
double percentile(std::vector<double> samples, double q);

/// Ratio helper that maps x/0 to 0 instead of NaN (for empty traces).
/// Inline: the Table 2 assembly calls it several times per lock.
inline double safe_ratio(double numerator, double denominator) noexcept {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Formats a fraction as a percent string with two decimals, e.g. "36.36%".
std::string percent_string(double fraction);

}  // namespace cla::util

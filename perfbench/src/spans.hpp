// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call into a CLA layer in a span: name
// ("<layer>.<call>"), start, end, parent span and run id (the iteration
// or round the call belongs to). Spans stay in memory and are written out
// once the run ends. A disabled tracer (the untraced run that yields the
// end-to-end numbers) records nothing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span, 0 = root
  std::uint32_t run = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Run id stamped on spans opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span; returns its handle (0 when disabled). Spans nest: the
  /// innermost open span is the parent.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t handle);

  /// Durations (ns) of every closed span called `name`.
  std::vector<double> durations_ns(std::string_view name) const;
  /// Self time (duration minus the time covered by child spans), summed
  /// per layer (the name up to its first '.'), in ns.
  std::map<std::string, double> self_ns_by_layer() const;

  /// Writes one JSON object per span, one per line.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span over one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), handle_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

}  // namespace perfbench

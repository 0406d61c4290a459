#include "cla/analysis/monitor.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"

namespace cla::analysis {

struct MonitorCore::Source {
  Source(const std::string& path, const trace::TraceTailer::Options& topts)
      : tailer(path, topts) {}

  trace::TraceTailer tailer;
  std::unique_ptr<IncrementalAnalyzer> analyzer;
  /// Writer warnings folded in from generations that rotated away, so the
  /// reported counters stay cumulative across resets.
  std::map<std::uint32_t, std::uint64_t> warn_base;
  std::uint64_t dropped_base = 0;
};

MonitorCore::MonitorCore(std::vector<std::string> paths, Options options)
    : options_(std::move(options)) {
  // A live tail is almost always mid-critical-section at the cut point;
  // strict validation would reject every poll.
  options_.analysis.validate = false;
  if (options_.top == 0) options_.top = 10;
  sources_.reserve(paths.size());
  states_.reserve(paths.size());
  for (auto& path : paths) {
    auto source = std::make_unique<Source>(path, options_.tailer);
    source->analyzer = std::make_unique<IncrementalAnalyzer>(options_.analysis);
    sources_.push_back(std::move(source));
    SourceState state;
    state.path = std::move(path);
    states_.push_back(std::move(state));
  }
}

MonitorCore::~MonitorCore() = default;

void MonitorCore::reset_analyzer(std::size_t i) {
  sources_[i]->analyzer =
      std::make_unique<IncrementalAnalyzer>(options_.analysis);
  states_[i].events = 0;
}

bool MonitorCore::step() {
  bool any_progress = false;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Source& source = *sources_[i];
    SourceState& state = states_[i];
    trace::TraceTailer::Delta delta;
    const auto status = source.tailer.poll(delta);
    switch (status) {
      case trace::TraceTailer::PollStatus::Progress: {
        any_progress = true;
        // A name or stack chunk can land in a poll without events; it
        // still has to reach the analyzer.
        if (delta.events > 0 || !delta.chunk.tables().empty()) {
          try {
            source.analyzer->append(delta.chunk);
            state.events += delta.events;
            state.total_events += delta.events;
          } catch (const util::Error& e) {
            // A hostile delta (e.g. resync glued two generations together
            // and timestamps rewound) must not kill the monitor: shed the
            // window and start clean from this delta's successor.
            state.last_error = e.what();
            ++state.windows_shed;
            reset_analyzer(i);
          }
        }
        state.dropped_events =
            source.dropped_base + source.tailer.dropped_events();
        state.skipped_bytes = source.tailer.total_skipped_bytes();
        if (delta.clean_close) state.writer_finished = true;
        break;
      }
      case trace::TraceTailer::PollStatus::Rotated: {
        any_progress = true;
        // Fold the rotated-away generation's counters into the bases so
        // the report stays cumulative, then restart the analysis window.
        for (const auto& [code, value] : delta.runtime_warnings) {
          source.warn_base[code] += value;
        }
        source.dropped_base = state.dropped_events;
        ++state.rotations;
        state.generation = source.tailer.generation();
        state.writer_finished = false;
        reset_analyzer(i);
        break;
      }
      case trace::TraceTailer::PollStatus::Removed:
        state.removed = true;
        break;
      case trace::TraceTailer::PollStatus::IoError:
        ++state.io_errors;
        break;
      case trace::TraceTailer::PollStatus::Idle:
        break;
    }
    // Merge writer warnings (cumulative per generation) over the base
    // from prior generations, then overlay the monitor-side codes.
    state.runtime_warnings = source.warn_base;
    for (const auto& [code, value] : delta.runtime_warnings) {
      state.runtime_warnings[code] += value;
    }
    if (state.rotations > 0) {
      state.runtime_warnings[static_cast<std::uint32_t>(
          util::DiagCode::CLA_W_TRACE_ROTATED)] = state.rotations;
    }
    if (state.windows_shed > 0) {
      state.runtime_warnings[static_cast<std::uint32_t>(
          util::DiagCode::CLA_W_ANALYSIS_WINDOW_SHED)] = state.windows_shed;
    }
  }
  return any_progress;
}

namespace {

void append_number(std::string& out, std::uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// As an ostream with precision(12) writes `value` (printf's "%.12g").
void append_number(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                std::chars_format::general, 12)
                      .ptr);
}

void append_field(std::string& out, std::string_view key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_number(out, value);
}

void append_field(std::string& out, std::string_view key, bool value) {
  out += ",\"";
  out += key;
  out += value ? "\":true" : "\":false";
}

}  // namespace

const std::string& MonitorCore::ranking_json() {
  std::string& out = json_;
  out.clear();
  out += "{\"schema\":1,\"sources\":[";
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    SourceState& state = states_[i];
    if (i > 0) out += ',';
    out += "{\"path\":";
    out += util::json_quoted(state.path);
    append_field(out, "generation", state.generation);
    append_field(out, "events", state.events);
    append_field(out, "total_events", state.total_events);
    append_field(out, "dropped_events", state.dropped_events);
    append_field(out, "skipped_bytes", state.skipped_bytes);
    append_field(out, "rotations", state.rotations);
    append_field(out, "windows_shed", state.windows_shed);
    append_field(out, "io_errors", state.io_errors);
    append_field(out, "writer_finished", state.writer_finished);
    append_field(out, "removed", state.removed);

    const AnalysisResult* result = snapshot(i);

    out += ",\"last_error\":";
    out += util::json_quoted(state.last_error);
    out += ",\"runtime_warnings\":{";
    bool first = true;
    for (const auto& [code, value] : state.runtime_warnings) {
      if (value == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      out += util::to_string(static_cast<util::DiagCode>(code));
      out += "\":";
      append_number(out, value);
    }
    out += '}';

    if (result != nullptr) {
      append_field(out, "completion_time_ns", result->completion_time);
      append_field(out, "worker_threads", result->worker_threads);
      out += ",\"locks\":[";
      const std::size_t n = std::min(options_.top, result->locks.size());
      for (std::size_t k = 0; k < n; ++k) {
        const LockStats& ls = result->locks[k];
        if (k > 0) out += ',';
        out += "{\"name\":";
        out += util::json_quoted(ls.name);
        append_field(out, "id", ls.id);
        append_field(out, "cp_hold_time_ns", ls.cp_hold_time);
        append_field(out, "cp_invocations", ls.cp_invocations);
        out += ",\"cp_time_fraction\":";
        append_number(out, ls.cp_time_fraction);
        append_field(out, "invocations", ls.invocations);
        append_field(out, "total_wait_ns", ls.total_wait);
        append_field(out, "total_hold_ns", ls.total_hold);
        out += '}';
      }
      out += "]}";
    } else {
      out += ",\"completion_time_ns\":0,\"worker_threads\":0,\"locks\":[]}";
    }
  }
  out += "]}";
  return out;
}

const AnalysisResult* MonitorCore::snapshot(std::size_t i) {
  Source& source = *sources_[i];
  SourceState& state = states_[i];
  try {
    // An empty window (fresh start, just rotated, or just shed) has
    // nothing to analyze — that is not an error, just no ranking yet.
    if (state.events > 0) {
      const AnalysisResult* result = &source.analyzer->result();
      state.last_error.clear();
      return result;
    }
  } catch (const util::Error& e) {
    // ResourceLimitError (budget breach) or a hostile window: shed it.
    // The next deltas start a fresh, affordable window; the shed itself
    // is counted loss.
    state.last_error = e.what();
    ++state.windows_shed;
    state.runtime_warnings[static_cast<std::uint32_t>(
        util::DiagCode::CLA_W_ANALYSIS_WINDOW_SHED)] = state.windows_shed;
    reset_analyzer(i);
  }
  return nullptr;
}

std::uint32_t MonitorCore::suggested_backoff_ms() const noexcept {
  std::uint32_t backoff = options_.tailer.backoff_max_ms;
  if (sources_.empty()) return backoff;
  for (const auto& source : sources_) {
    backoff = std::min(backoff, source->tailer.suggested_backoff_ms());
  }
  return backoff;
}

bool MonitorCore::all_finished() const noexcept {
  if (states_.empty()) return true;
  for (const SourceState& state : states_) {
    if (!state.writer_finished && !state.removed) return false;
  }
  return true;
}

bool MonitorCore::lossy() const noexcept {
  for (const SourceState& state : states_) {
    if (state.dropped_events > 0 || state.skipped_bytes > 0 ||
        state.rotations > 0 || state.windows_shed > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace cla::analysis

#include "cla/util/diagnostics.hpp"

#include <utility>

namespace cla::util {

void append_json_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_quoted(std::string_view text) {
  std::string out;
  append_json_string(out, text);
  return out;
}

std::string_view to_string(Strictness mode) noexcept {
  switch (mode) {
    case Strictness::Strict:
      return "strict";
    case Strictness::Repair:
      return "repair";
    case Strictness::Lenient:
      return "lenient";
  }
  return "?";
}

bool parse_strictness(std::string_view text, Strictness& out) noexcept {
  if (text == "strict") {
    out = Strictness::Strict;
  } else if (text == "repair") {
    out = Strictness::Repair;
  } else if (text == "lenient") {
    out = Strictness::Lenient;
  } else {
    return false;
  }
  return true;
}

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info:
      return "info";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
    case Severity::Fatal:
      return "fatal";
  }
  return "?";
}

std::string_view to_string(DiagCode code) noexcept {
  switch (code) {
    case DiagCode::CLA_E_NO_THREADS:
      return "CLA_E_NO_THREADS";
    case DiagCode::CLA_E_EMPTY_THREAD:
      return "CLA_E_EMPTY_THREAD";
    case DiagCode::CLA_E_NO_THREAD_START:
      return "CLA_E_NO_THREAD_START";
    case DiagCode::CLA_E_STRAY_THREAD_START:
      return "CLA_E_STRAY_THREAD_START";
    case DiagCode::CLA_E_DANGLING_THREAD:
      return "CLA_E_DANGLING_THREAD";
    case DiagCode::CLA_E_STRAY_THREAD_EXIT:
      return "CLA_E_STRAY_THREAD_EXIT";
    case DiagCode::CLA_E_TID_MISMATCH:
      return "CLA_E_TID_MISMATCH";
    case DiagCode::CLA_E_TS_REGRESSION:
      return "CLA_E_TS_REGRESSION";
    case DiagCode::CLA_E_DOUBLE_ACQUIRE:
      return "CLA_E_DOUBLE_ACQUIRE";
    case DiagCode::CLA_E_UNPAIRED_ACQUIRED:
      return "CLA_E_UNPAIRED_ACQUIRED";
    case DiagCode::CLA_E_UNPAIRED_UNLOCK:
      return "CLA_E_UNPAIRED_UNLOCK";
    case DiagCode::CLA_E_BARRIER_REENTER:
      return "CLA_E_BARRIER_REENTER";
    case DiagCode::CLA_E_UNPAIRED_BARRIER_LEAVE:
      return "CLA_E_UNPAIRED_BARRIER_LEAVE";
    case DiagCode::CLA_W_NESTED_COND_WAIT:
      return "CLA_W_NESTED_COND_WAIT";
    case DiagCode::CLA_W_UNPAIRED_WAIT_END:
      return "CLA_W_UNPAIRED_WAIT_END";
    case DiagCode::CLA_W_OPEN_WAIT_AT_EXIT:
      return "CLA_W_OPEN_WAIT_AT_EXIT";
    case DiagCode::CLA_W_LOCK_HELD_AT_EXIT:
      return "CLA_W_LOCK_HELD_AT_EXIT";
    case DiagCode::CLA_W_ACQUIRE_PENDING_AT_EXIT:
      return "CLA_W_ACQUIRE_PENDING_AT_EXIT";
    case DiagCode::CLA_W_OPEN_BARRIER_AT_EXIT:
      return "CLA_W_OPEN_BARRIER_AT_EXIT";
    case DiagCode::CLA_W_UNKNOWN_THREAD_REF:
      return "CLA_W_UNKNOWN_THREAD_REF";
    case DiagCode::CLA_W_IO_RETRIED:
      return "CLA_W_IO_RETRIED";
    case DiagCode::CLA_W_IO_DROPPED_EVENTS:
      return "CLA_W_IO_DROPPED_EVENTS";
    case DiagCode::CLA_W_PARTIAL_INTERPOSITION:
      return "CLA_W_PARTIAL_INTERPOSITION";
    case DiagCode::CLA_W_FORKED_CHILD:
      return "CLA_W_FORKED_CHILD";
    case DiagCode::CLA_W_RING_RETIRED_EVENTS:
      return "CLA_W_RING_RETIRED_EVENTS";
    case DiagCode::CLA_W_TRACE_ROTATED:
      return "CLA_W_TRACE_ROTATED";
    case DiagCode::CLA_W_ANALYSIS_WINDOW_SHED:
      return "CLA_W_ANALYSIS_WINDOW_SHED";
    case DiagCode::CLA_W_READ_RETRIED:
      return "CLA_W_READ_RETRIED";
    case DiagCode::CLA_W_RING_COMPACTION_NOOP:
      return "CLA_W_RING_COMPACTION_NOOP";
    case DiagCode::CLA_W_AGG_TRUNCATED_TAIL:
      return "CLA_W_AGG_TRUNCATED_TAIL";
    case DiagCode::CLA_W_AGG_SKIPPED_BYTES:
      return "CLA_W_AGG_SKIPPED_BYTES";
    case DiagCode::CLA_W_AGG_APPEND_FAILED:
      return "CLA_W_AGG_APPEND_FAILED";
    case DiagCode::CLA_W_AGG_META_RESET:
      return "CLA_W_AGG_META_RESET";
    case DiagCode::CLA_R_SYNTHESIZED_EVENTS:
      return "CLA_R_SYNTHESIZED_EVENTS";
    case DiagCode::CLA_R_DROPPED_EVENTS:
      return "CLA_R_DROPPED_EVENTS";
    case DiagCode::CLA_R_CLAMPED_TIMESTAMPS:
      return "CLA_R_CLAMPED_TIMESTAMPS";
    case DiagCode::CLA_R_STUBBED_THREAD:
      return "CLA_R_STUBBED_THREAD";
    case DiagCode::CLA_R_DROPPED_THREAD:
      return "CLA_R_DROPPED_THREAD";
    case DiagCode::CLA_E_DEADLINE_EXCEEDED:
      return "CLA_E_DEADLINE_EXCEEDED";
    case DiagCode::CLA_E_EVENT_BUDGET_EXCEEDED:
      return "CLA_E_EVENT_BUDGET_EXCEEDED";
    case DiagCode::CLA_E_TRACE_IO:
      return "CLA_E_TRACE_IO";
  }
  return "CLA_UNKNOWN";
}

std::string Diagnostic::to_string() const {
  std::string out;
  out += '[';
  out += util::to_string(severity);
  out += "] ";
  out += util::to_string(code);
  if (tid != kNoTid) {
    out += " T";
    out += std::to_string(tid);
  }
  if (event != kNoEvent) {
    out += " event ";
    out += std::to_string(event);
  }
  out += ": ";
  out += message;
  return out;
}

void DiagnosticSink::report(Diagnostic diagnostic) {
  ++counts_[static_cast<std::size_t>(diagnostic.severity)];
  if (diagnostics_.size() >= cap_) {
    ++suppressed_;
    return;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticSink::report(Severity severity, DiagCode code,
                            std::uint32_t tid, std::uint64_t event,
                            std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.tid = tid;
  d.event = event;
  d.message = std::move(message);
  report(std::move(d));
}

void DiagnosticSink::clear() noexcept {
  diagnostics_.clear();
  suppressed_ = 0;
  for (auto& c : counts_) c = 0;
}

std::uint64_t DiagnosticSink::count(Severity severity) const noexcept {
  return counts_[static_cast<std::size_t>(severity)];
}

std::uint64_t DiagnosticSink::error_count() const noexcept {
  return count(Severity::Error) + count(Severity::Fatal);
}

const Diagnostic* DiagnosticSink::first_at_least(
    Severity severity) const noexcept {
  for (const auto& d : diagnostics_) {
    if (d.severity >= severity) return &d;
  }
  return nullptr;
}

std::string DiagnosticSink::to_string(std::size_t max_lines) const {
  std::string out;
  const std::size_t shown = (max_lines == 0 || max_lines > diagnostics_.size())
                                ? diagnostics_.size()
                                : max_lines;
  for (std::size_t i = 0; i < shown; ++i) {
    out += diagnostics_[i].to_string();
    out += '\n';
  }
  const std::uint64_t hidden =
      suppressed_ + static_cast<std::uint64_t>(diagnostics_.size() - shown);
  if (hidden > 0) {
    out += "... ";
    out += std::to_string(hidden);
    out += " more diagnostics not shown\n";
  }
  return out;
}

std::string DiagnosticSink::to_json() const {
  std::string out;
  out += "{\n  \"counts\": {";
  static const Severity kAll[] = {Severity::Info, Severity::Warning,
                                  Severity::Error, Severity::Fatal};
  bool first = true;
  for (const Severity s : kAll) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += util::to_string(s);
    out += "\": ";
    out += std::to_string(count(s));
  }
  out += "},\n  \"suppressed\": ";
  out += std::to_string(suppressed_);
  out += ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"severity\": ";
    append_json_string(out, util::to_string(d.severity));
    out += ", \"code\": ";
    append_json_string(out, util::to_string(d.code));
    out += ", \"tid\": ";
    if (d.tid == Diagnostic::kNoTid) {
      out += "null";
    } else {
      out += std::to_string(d.tid);
    }
    out += ", \"event\": ";
    if (d.event == Diagnostic::kNoEvent) {
      out += "null";
    } else {
      out += std::to_string(d.event);
    }
    out += ", \"message\": ";
    append_json_string(out, d.message);
    out += '}';
  }
  out += diagnostics_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace cla::util

#include "spans.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1u << 16);
}

std::uint32_t Tracer::begin(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? 0 : open_.back();
  span.run = run_;
  spans_.push_back(span);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  spans_.back().start_ns = steady_ns();
  return handle;
}

void Tracer::end(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = steady_ns();
  open_.pop_back();  // ScopedSpan closes spans innermost first
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent - 1] += static_cast<double>(span.duration_ns());
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[std::string(layer_of(spans_[i].name))] +=
        static_cast<double>(spans_[i].duration_ns()) - child_ns[i];
  }
  return self;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}\n";
  }
}

}  // namespace perfbench

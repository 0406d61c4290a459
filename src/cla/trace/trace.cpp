#include "cla/trace/trace.hpp"

#include <algorithm>
#include <sstream>

#include "cla/trace/validate.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {

std::string_view to_string(EventType type) noexcept {
  switch (type) {
    case EventType::ThreadStart: return "ThreadStart";
    case EventType::ThreadExit: return "ThreadExit";
    case EventType::ThreadCreate: return "ThreadCreate";
    case EventType::JoinBegin: return "JoinBegin";
    case EventType::JoinEnd: return "JoinEnd";
    case EventType::MutexAcquire: return "MutexAcquire";
    case EventType::MutexAcquired: return "MutexAcquired";
    case EventType::MutexReleased: return "MutexReleased";
    case EventType::BarrierArrive: return "BarrierArrive";
    case EventType::BarrierLeave: return "BarrierLeave";
    case EventType::CondWaitBegin: return "CondWaitBegin";
    case EventType::CondWaitEnd: return "CondWaitEnd";
    case EventType::CondSignal: return "CondSignal";
    case EventType::CondBroadcast: return "CondBroadcast";
    case EventType::PhaseBegin: return "PhaseBegin";
    case EventType::PhaseEnd: return "PhaseEnd";
  }
  return "Unknown";
}

namespace {

// Last-write-wins insert of every entry of `from` into `into`; true when
// any value was added or replaced.
template <typename Map>
bool merge_map(Map& into, const Map& from) {
  bool changed = false;
  for (const auto& [key, value] : from) {
    auto [it, inserted] = into.try_emplace(key, value);
    if (!inserted && it->second != value) {
      it->second = value;
      inserted = true;
    }
    changed |= inserted;
  }
  return changed;
}

}  // namespace

bool TraceTables::empty() const noexcept {
  return object_names.empty() && thread_names.empty() && call_stacks.empty() &&
         frame_symbols.empty() && runtime_warnings.empty() &&
         dropped_events == 0;
}

bool TraceTables::merge(const TraceTables& other) {
  bool changed = merge_map(object_names, other.object_names);
  changed |= merge_map(thread_names, other.thread_names);
  changed |= merge_map(call_stacks, other.call_stacks);
  changed |= merge_map(frame_symbols, other.frame_symbols);
  changed |= merge_map(runtime_warnings, other.runtime_warnings);
  return changed;
}

void Trace::add(const Event& event) {
  thread_stream(event.tid).push_back(event);
}

void Trace::add_thread_stream(ThreadId tid, std::vector<Event> events) {
  auto& stream = thread_stream(tid);
  const bool was_empty = stream.empty();
  stream.append(events);
  if (!was_empty) {
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
  }
}

void Trace::append_thread_events(ThreadId tid, std::span<const Event> events) {
  thread_stream(tid).append(events);
}

util::GrowArray<Event>& Trace::thread_stream(ThreadId tid) {
  if (tid >= threads_.size()) threads_.resize(tid + 1);
  return threads_[tid];
}

std::span<const Event> Trace::thread_events(ThreadId tid) const {
  CLA_CHECK(tid < threads_.size(), "thread id out of range");
  return {threads_[tid].data(), threads_[tid].size()};
}

std::size_t Trace::event_count() const noexcept {
  std::size_t n = 0;
  for (const auto& stream : threads_) n += stream.size();
  return n;
}

std::uint64_t Trace::start_ts() const noexcept {
  std::uint64_t ts = ~0ull;
  for (const auto& stream : threads_)
    if (!stream.empty()) ts = std::min(ts, stream.front().ts);
  return ts == ~0ull ? 0 : ts;
}

std::uint64_t Trace::end_ts() const noexcept {
  std::uint64_t ts = 0;
  for (const auto& stream : threads_)
    if (!stream.empty()) ts = std::max(ts, stream.back().ts);
  return ts;
}

const std::string* Trace::object_name(ObjectId object) const {
  auto it = tables_.object_names.find(object);
  return it == tables_.object_names.end() ? nullptr : &it->second;
}

std::string Trace::object_display_name(ObjectId object,
                                       std::string_view prefix) const {
  if (const auto* name = object_name(object)) return *name;
  return std::string(prefix) + "@" + std::to_string(object);
}

std::string Trace::thread_display_name(ThreadId tid) const {
  auto it = tables_.thread_names.find(tid);
  if (it != tables_.thread_names.end()) return it->second;
  return "T" + std::to_string(tid);
}

void Trace::validate() const {
  util::DiagnosticSink sink;
  if (validate_trace(TraceView(*this), sink)) return;
  std::string message = "trace failed validation: " +
                        std::to_string(sink.error_count()) +
                        " error-severity diagnostic(s)";
  if (const auto* first = sink.first_at_least(util::Severity::Error)) {
    message += "; first: " + first->to_string();
  }
  throw util::ValidationError(message);
}

std::string Trace::dump() const {
  std::ostringstream out;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    out << "== " << thread_display_name(tid) << " ==\n";
    for (const Event& e : threads_[tid]) {
      out << "  " << e.ts << "  " << to_string(e.type);
      if (e.object != kNoObject) out << " obj=" << e.object;
      if (e.arg != kNoArg) out << " arg=" << e.arg;
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace cla::trace

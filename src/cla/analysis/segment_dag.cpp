#include "cla/analysis/segment_dag.hpp"

#include <algorithm>

#include "cla/analysis/resolver.hpp"
#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

namespace {

/// Events scanned between deadline polls inside one shard.
constexpr std::uint32_t kPollMask = 0xffff;

}  // namespace

const std::vector<Segment>& SegmentDag::thread_segments(
    trace::ThreadId tid) const {
  CLA_ASSERT(tid < threads_.size(), "segment thread out of range");
  return threads_[tid];
}

std::uint32_t SegmentDag::segment_at(trace::ThreadId tid,
                                     std::uint32_t idx) const {
  const std::vector<Segment>& segs = thread_segments(tid);
  CLA_ASSERT(!segs.empty(), "thread has no segments");
  // Last segment whose begin_idx <= idx. Segment 0 starts at event 0, so
  // the upper_bound is never begin().
  auto it = std::upper_bound(segs.begin(), segs.end(), idx,
                             [](std::uint32_t i, const Segment& s) {
                               return i < s.begin_idx;
                             });
  return static_cast<std::uint32_t>((it - segs.begin()) - 1);
}

SegmentDag SegmentDag::build(const TraceIndex& index, util::ThreadPool* pool,
                             const util::Deadline* deadline) {
  SegmentDag dag;
  dag.extend(index, 0, pool, deadline);
  return dag;
}

SegmentDag::SegmentDag(trace::TraceView view,
                       std::vector<std::vector<Segment>> threads,
                       trace::ThreadId last_thread)
    : view_(std::move(view)),
      threads_(std::move(threads)),
      last_thread_(last_thread) {
  for (const std::vector<Segment>& segs : threads_) {
    for (const Segment& s : segs) hops_ += s.has_jump() ? 1 : 0;
  }
  number_segments();
}

void SegmentDag::number_segments() {
  offsets_.assign(threads_.size() + 1, 0);
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    offsets_[tid + 1] = offsets_[tid] + threads_[tid].size();
  }
  total_ = offsets_.back();
}

void SegmentDag::extend(const TraceIndex& index, std::uint64_t boundary,
                        util::ThreadPool* pool,
                        const util::Deadline* deadline) {
  const trace::TraceView& t = index.view();
  CLA_CHECK(t.thread_count() >= threads_.size(),
            "an extended trace cannot lose threads");
  view_ = t;
  last_thread_ = index.last_finished_thread();
  const auto thread_count = static_cast<trace::ThreadId>(t.thread_count());
  threads_.resize(thread_count);

  // Shard-parallel segment discovery: one task per thread drops the
  // segments from the boundary on, then reads only the type column (one
  // 2-byte load per event) from there and resolves the wake-ups it finds.
  // Slot tid is written only by iteration tid.
  std::vector<std::uint32_t> kept(thread_count, 0);
  std::vector<std::size_t> dropped_hops(thread_count, 0);
  std::vector<std::size_t> new_hops(thread_count, 0);
  const auto discover = [&](std::size_t task) {
    const auto tid = static_cast<trace::ThreadId>(task);
    const trace::EventsView& events = t.thread_events(tid);
    if (events.empty()) return;  // placeholder thread in a live tail
    std::vector<Segment>& segs = threads_[tid];
    // A thread whose timestamps regress has no time order to cut at: it
    // is rediscovered from its first event.
    const bool ordered = index.threads()[tid].ts_ordered;
    auto keep = segs.begin();
    if (ordered && !segs.empty() && segs.front().begin_ts < boundary) {
      keep = std::partition_point(
          segs.begin() + 1, segs.end(),
          [&](const Segment& s) { return s.begin_ts < boundary; });
    }
    for (auto it = keep; it != segs.end(); ++it) {
      dropped_hops[tid] += it->has_jump() ? 1 : 0;
    }
    segs.erase(keep, segs.end());
    kept[tid] = static_cast<std::uint32_t>(segs.size());
    std::uint32_t first = 0;
    if (segs.empty()) {
      Segment initial;
      initial.begin_idx = 0;
      initial.begin_ts = events.ts_at(0);
      initial.kind = events.type_at(0);
      initial.object = events.object_at(0);
      segs.push_back(initial);
    } else {
      first = t.thread_cursor(tid).seek_ts(boundary);
    }
    // The thread's first section at or after `first`: the wake-ups come in
    // event order, so resolve_wakeup steps this row forward.
    const SectionTable& rows = index.thread_sections(tid);
    auto row = static_cast<std::uint32_t>(
        std::partition_point(rows.begin(), rows.end(),
                             [&](const SectionRow& r) {
                               return r.acquired_idx < first;
                             }) -
        rows.begin());
    for (std::uint32_t i = first; i < events.size(); ++i) {
      if (deadline != nullptr && (i & kPollMask) == kPollMask) {
        deadline->check("segment-dag build");
      }
      const trace::EventType type = events.type_at(i);
      if (!trace::is_wakeup(type)) continue;
      const Resolution r = resolve_wakeup(index, tid, i, row);
      if (!r.blocked || !r.releaser.valid()) continue;
      ++new_hops[tid];
      if (i == 0) {
        segs.front().jump_to = r.releaser;
        continue;
      }
      Segment s;
      s.begin_idx = i;
      s.begin_ts = events.ts_at(i);
      s.jump_to = r.releaser;
      s.kind = type;
      s.object = events.object_at(i);
      segs.push_back(s);
    }
  };
  util::for_each_index(pool, thread_count, discover);

  retained_ = 0;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    retained_ += kept[tid];
    hops_ += new_hops[tid];
    hops_ -= dropped_hops[tid];
  }
  number_segments();
}

}  // namespace cla::analysis

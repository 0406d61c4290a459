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
                       trace::ThreadId last_thread, util::ThreadPool* pool,
                       const util::Deadline* deadline)
    : view_(std::move(view)),
      threads_(std::move(threads)),
      late_hops_(threads_.size()),
      last_thread_(last_thread) {
  for (const std::vector<Segment>& segs : threads_) {
    for (const Segment& s : segs) hops_ += s.has_jump() ? 1 : 0;
  }
  resolve_hops(std::vector<std::uint32_t>(threads_.size(), 0), 0, pool,
               deadline);
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
  late_hops_.resize(thread_count);

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
    for (std::uint32_t i = first; i < events.size(); ++i) {
      if (deadline != nullptr && (i & kPollMask) == kPollMask) {
        deadline->check("segment-dag build");
      }
      const trace::EventType type = events.type_at(i);
      if (!trace::is_wakeup(type)) continue;
      const Resolution r = resolve_wakeup(index, tid, i);
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
  bool all_ordered = true;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    retained_ += kept[tid];
    hops_ += new_hops[tid];
    hops_ -= dropped_hops[tid];
    all_ordered = all_ordered && index.threads()[tid].ts_ordered;
  }
  // A rediscovered thread can renumber the segments other threads' hops
  // land in, so then every hop is resolved again.
  if (!all_ordered) std::fill(kept.begin(), kept.end(), 0);
  resolve_hops(kept, boundary, pool, deadline);
}

void SegmentDag::resolve_hop(Segment& s) const {
  if (!s.jump_to.valid()) return;
  const trace::ThreadId target = s.jump_to.tid;
  CLA_ASSERT(target < threads_.size(), "hop target thread out of range");
  const std::uint32_t j = s.jump_to.index;
  s.jump_ts = view_.thread_events(target).ts_at(j);
  s.jump_seg = segment_at(target, j == 0 ? 0 : j - 1);
}

void SegmentDag::resolve_hops(const std::vector<std::uint32_t>& from,
                              std::uint64_t boundary, util::ThreadPool* pool,
                              const util::Deadline* deadline) {
  const std::size_t thread_count = threads_.size();
  offsets_.assign(thread_count + 1, 0);
  std::vector<std::size_t> pending(thread_count + 1, 0);
  for (std::size_t tid = 0; tid < thread_count; ++tid) {
    offsets_[tid + 1] = offsets_[tid] + threads_[tid].size();
    pending[tid + 1] = pending[tid] + (threads_[tid].size() - from[tid]);
  }
  total_ = offsets_.back();

  // Speculative hop resolution: for every new segment — whether or not
  // the walk will ever enter it — find where its jump lands. The backward
  // walker continues scanning *below* the releaser (event jump_to.index-1
  // when it is not the target's first event), so the landing segment is
  // the one containing that predecessor event.
  const auto resolve_range = [&](std::size_t begin, std::size_t end) {
    // Map the range of pending segments back to (tid, local) runs.
    std::size_t tid = 0;
    while (pending[tid + 1] <= begin) ++tid;
    std::size_t local = from[tid] + (begin - pending[tid]);
    for (std::size_t g = begin; g < end; ++g) {
      if (deadline != nullptr && (g & 0xfff) == 0xfff) {
        deadline->check("segment-dag hop resolution");
      }
      while (local >= threads_[tid].size()) {
        ++tid;
        local = from[tid];
      }
      resolve_hop(threads_[tid][local++]);
    }
  };
  if (pool == nullptr) {
    resolve_range(0, pending.back());
  } else if (pending.back() != 0) {
    pool->parallel_for_chunks(pending.back(), 4096, resolve_range);
  }

  // Retained hops to a releaser at or after the boundary may land in a
  // rediscovered segment; new hops to a later releaser join the list.
  for (std::size_t tid = 0; tid < thread_count; ++tid) {
    std::vector<std::uint32_t>& late = late_hops_[tid];
    const std::vector<Segment>& segs = threads_[tid];
    late.erase(std::lower_bound(late.begin(), late.end(), from[tid]), late.end());
    for (const std::uint32_t local : late) {
      if (segs[local].jump_ts >= boundary) resolve_hop(threads_[tid][local]);
    }
    for (auto local = from[tid]; local < segs.size(); ++local) {
      if (segs[local].has_jump() && segs[local].jump_ts > segs[local].begin_ts) {
        late.push_back(local);
      }
    }
  }
}

}  // namespace cla::analysis

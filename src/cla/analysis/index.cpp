#include "cla/analysis/index.hpp"

#include <algorithm>

#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

void MutexIndex::count(const CsRecord& cs) {
  totals.add(cs);
  wait_per_thread[cs.tid] += cs.wait_time();
  hold_per_thread[cs.tid] += cs.hold_time();
  if (cs.stack_id != 0) callsites[cs.stack_id].add(cs);
}

void MutexIndex::uncount(const CsRecord& cs) {
  totals.subtract(cs);
  wait_per_thread[cs.tid] -= cs.wait_time();
  hold_per_thread[cs.tid] -= cs.hold_time();
  if (cs.stack_id == 0) return;
  const auto it = callsites.find(cs.stack_id);
  it->second.subtract(cs);
  if (it->second.invocations == 0) callsites.erase(it);
}

namespace {

using trace::Event;
using trace::EventType;

constexpr std::uint64_t kUnreleased = ThreadScanState::kUnreleasedTs;

bool is_sync_op(EventType type) noexcept {
  switch (type) {
    case EventType::MutexAcquire:
    case EventType::MutexAcquired:
    case EventType::MutexReleased:
    case EventType::BarrierArrive:
    case EventType::BarrierLeave:
    case EventType::CondWaitBegin:
    case EventType::CondWaitEnd:
    case EventType::CondSignal:
    case EventType::CondBroadcast:
      return true;
    default:
      return false;
  }
}

/// Ownership order of a mutex's sections. It is a strict total order and
/// equals a thread-id-ordered merge followed by a stable sort on
/// acquired_ts (a thread's sections scan in acquired_idx order).
bool owned_before(const CsRecord& a, const CsRecord& b) noexcept {
  if (a.acquired_ts != b.acquired_ts) return a.acquired_ts < b.acquired_ts;
  if (a.tid != b.tid) return a.tid < b.tid;
  return a.acquired_idx < b.acquired_idx;
}

/// Time order of a condvar's signals, ties as for owned_before.
bool signalled_before(const CondSignalRecord& a,
                      const CondSignalRecord& b) noexcept {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.tid != b.tid) return a.tid < b.tid;
  return a.idx < b.idx;
}

template <typename Record>
using RecordsByObject = std::map<trace::ObjectId, std::vector<Record>>;

/// Moves every record of `from` onto the end of its object's list in `to`.
template <typename Record>
void drain_into(RecordsByObject<Record>& from, RecordsByObject<Record>& to) {
  for (auto& [object, records] : from) {
    auto& dst = to[object];
    dst.insert(dst.end(), records.begin(), records.end());
  }
  from.clear();
}

/// Appends `added` (in thread-id order) to `records`, which are grouped by
/// thread: each thread's new records land after its old ones, exactly
/// where a thread-id-ordered merge from scratch puts them.
template <typename Record>
void merge_by_thread(std::vector<Record>& records,
                     const std::vector<Record>& added) {
  const auto old = static_cast<std::ptrdiff_t>(records.size());
  records.insert(records.end(), added.begin(), added.end());
  std::inplace_merge(records.begin(), records.begin() + old, records.end(),
                     [](const Record& a, const Record& b) { return a.tid < b.tid; });
}

/// Groups a barrier's waits into episodes and finds each episode's last
/// arriver. Episodes are numbered densely in order of first appearance:
/// clipped traces keep the original generation counters, which need not
/// start at zero.
void build_episodes(BarrierIndex& bi) {
  std::map<std::uint32_t, std::uint32_t> dense;  // generation -> episode
  for (auto& w : bi.waits) {
    w.episode = dense.try_emplace(w.generation,
                                  static_cast<std::uint32_t>(dense.size()))
                    .first->second;
  }
  bi.episodes.assign(dense.size(), BarrierEpisode{});
  for (std::uint32_t wi = 0; wi < bi.waits.size(); ++wi) {
    bi.episodes[bi.waits[wi].episode].waits.push_back(wi);
  }
  for (auto& ep : bi.episodes) {
    ep.last_arriver = ep.waits.front();
    for (std::uint32_t wi : ep.waits) {
      const auto& cand = bi.waits[wi];
      const auto& best = bi.waits[ep.last_arriver];
      if (cand.arrive_ts > best.arrive_ts ||
          (cand.arrive_ts == best.arrive_ts && cand.tid < best.tid)) {
        ep.last_arriver = wi;
      }
    }
  }
}

/// Rebuilds a position table from scratch over every record of `objects`.
template <typename Table, typename Index, typename Records, typename EventIdx>
void fill_positions(Table& table, std::size_t threads,
                    const std::map<trace::ObjectId, Index>& objects,
                    Records Index::*records, EventIdx event_idx) {
  table.assign(threads, {});
  for (const auto& [object, index] : objects) {
    (void)object;
    const auto& recs = index.*records;
    for (std::uint32_t pos = 0; pos < recs.size(); ++pos) {
      table[recs[pos].tid].push_back({event_idx(recs[pos]), pos});
    }
  }
  for (auto& entries : table) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.idx < b.idx; });
  }
}

template <typename Table>
std::uint32_t find_position(const Table& table, trace::ThreadId tid,
                            std::uint32_t idx) {
  if (tid >= table.size()) return TraceIndex::npos32;
  const auto& entries = table[tid];
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), idx,
      [](const auto& e, std::uint32_t i) { return e.idx < i; });
  return it != entries.end() && it->idx == idx ? it->pos : TraceIndex::npos32;
}

}  // namespace

void ThreadScanState::consume(const trace::EventsView& events,
                              trace::ThreadId tid) {
  consume(events, tid, static_cast<std::uint32_t>(events.size()));
}

void ThreadScanState::consume(const trace::EventsView& events,
                              trace::ThreadId tid, std::uint32_t limit) {
  // Empty streams are legal mid-tail: a live trace can surface tid N's
  // first chunk before tid N-1's, leaving a placeholder thread with no
  // events yet. Its scan stays at the default (zero) info.
  if (events.empty()) return;
  CLA_CHECK(limit <= events.size(), "scan limit beyond the event stream");
  if (limit <= next_) return;
  if (next_ == 0) {
    info.start_ts = events.front().ts;
    if (events.front().type == EventType::ThreadStart &&
        events.front().object != trace::kNoObject) {
      info.parent = static_cast<trace::ThreadId>(events.front().object);
    }
  }
  info.exit_ts = events.ts_at(limit - 1);
  info.exit_idx = limit - 1;

  for (std::uint32_t i = next_; i < limit; ++i) {
    const Event e = events[i];
    if (i != 0 && e.ts < last_ts_) info.ts_ordered = false;
    last_ts_ = e.ts;
    if (is_sync_op(e.type)) ++info.sync_ops;
    switch (e.type) {
      case EventType::ThreadCreate:
        creates.emplace_back(static_cast<trace::ThreadId>(e.object),
                             EventRef{tid, i});
        break;
      case EventType::MutexAcquire: {
        auto& p = pending_cs_[e.object];
        if (!p.open) {  // ignore recursive re-acquire of a held lock
          // arg carries the acquisition call-stack id when the trace was
          // recorded with callsite capture (0 / kNoArg = none).
          const std::uint64_t sid = e.arg != trace::kNoArg ? e.arg : 0;
          p = PendingCs{i, e.ts, sid, true};
        }
        break;
      }
      case EventType::MutexAcquired: {
        // The pending acquire is done with: dropping it keeps pending_cs_
        // down to the open ones (a later acquire starts a fresh entry).
        const auto it = pending_cs_.find(e.object);
        if (it != pending_cs_.end()) {
          const PendingCs& p = it->second;
          CsRecord cs;
          cs.tid = tid;
          cs.acquire_idx = p.acquire_idx;
          cs.acquired_idx = i;
          cs.acquire_ts = p.acquire_ts;
          cs.acquired_ts = e.ts;
          cs.released_ts = kUnreleasedTs;  // filled on MutexReleased
          cs.stack_id = p.stack_id;
          cs.contended = (e.arg != trace::kNoArg) && (e.arg & 1);
          sections[e.object].push_back(cs);
          pending_cs_.erase(it);
        }
        break;
      }
      case EventType::MutexReleased: {
        // This thread scans its events in order and its sections append in
        // acquisition order, so its open section is the rearmost one.
        auto& secs = sections[e.object];
        for (auto it = secs.rbegin(); it != secs.rend(); ++it) {
          if (it->released_ts == kUnreleasedTs) {
            it->released_idx = i;
            it->released_ts = e.ts;
            break;
          }
        }
        break;
      }
      case EventType::BarrierArrive: {
        auto& p = pending_barrier_[e.object];
        p.arrive_idx = i;
        p.arrive_ts = e.ts;
        p.recorded_episode = e.arg;
        p.open = true;
        break;
      }
      case EventType::BarrierLeave: {
        auto& p = pending_barrier_[e.object];
        if (p.open) {
          BarrierWaitRecord w;
          w.tid = tid;
          w.arrive_idx = p.arrive_idx;
          w.leave_idx = i;
          w.arrive_ts = p.arrive_ts;
          w.leave_ts = e.ts;
          // An episode recorded by the producer is preferred, but it is
          // untrusted input: an absurd value (corrupt trace) falls back
          // to the per-thread wait ordinal, which is always coherent.
          w.generation = p.recorded_episode != trace::kNoArg &&
                              p.recorded_episode <= (1u << 24)
                          ? static_cast<std::uint32_t>(p.recorded_episode)
                          : p.ordinal;
          barrier_waits[e.object].push_back(w);
          ++p.ordinal;
          p.open = false;
        }
        break;
      }
      case EventType::CondWaitBegin: {
        pending_cond_ = PendingCond{i, e.ts, true};
        pending_cond_id_ = e.object;
        break;
      }
      case EventType::CondWaitEnd: {
        if (pending_cond_.open && pending_cond_id_ == e.object) {
          CondWaitRecord w;
          w.tid = tid;
          w.begin_idx = pending_cond_.begin_idx;
          w.end_idx = i;
          w.begin_ts = pending_cond_.begin_ts;
          w.end_ts = e.ts;
          cond_waits[e.object].push_back(w);
          pending_cond_.open = false;
        }
        break;
      }
      case EventType::CondSignal:
      case EventType::CondBroadcast: {
        signals[e.object].push_back(CondSignalRecord{
            tid, i, e.ts, e.type == EventType::CondBroadcast});
        break;
      }
      default:
        break;
    }
  }
  next_ = limit;
}

std::uint64_t ThreadScanState::earliest_open_ts() const noexcept {
  std::uint64_t earliest = ~static_cast<std::uint64_t>(0);
  for (const auto& [object, secs] : sections) {
    (void)object;
    for (const auto& cs : secs) {
      if (cs.released_ts == kUnreleasedTs && cs.acquire_ts < earliest) {
        earliest = cs.acquire_ts;
      }
    }
  }
  // A pending acquire/arrive/wait-begin with no completing event yet can
  // still complete in a later round, changing resolutions from its start.
  for (const auto& [object, p] : pending_cs_) {
    (void)object;
    if (p.open && p.acquire_ts < earliest) earliest = p.acquire_ts;
  }
  for (const auto& [object, p] : pending_barrier_) {
    (void)object;
    if (p.open && p.arrive_ts < earliest) earliest = p.arrive_ts;
  }
  if (pending_cond_.open && pending_cond_.begin_ts < earliest) {
    earliest = pending_cond_.begin_ts;
  }
  return earliest;
}

TraceIndex::TraceIndex(const trace::Trace& t) : TraceIndex(t, nullptr) {}

TraceIndex::TraceIndex(const trace::TraceView& v)
    : TraceIndex(v, nullptr) {}

TraceIndex::TraceIndex(const trace::Trace& t, util::ThreadPool* pool)
    : TraceIndex(trace::TraceView(t), pool) {}

TraceIndex::TraceIndex(const trace::TraceView& v, util::ThreadPool* pool) {
  // --- per-thread scans: the O(events) part, fanned out across the pool.
  // Slot tid is written only by iteration tid, so scheduling order cannot
  // affect the result.
  std::vector<ThreadScanState> scans(v.thread_count());
  util::for_each_index(pool, scans.size(), [&](std::size_t tid) {
    scans[tid].consume(v.thread_events(static_cast<trace::ThreadId>(tid)),
                       static_cast<trace::ThreadId>(tid));
  });
  extend(v, scans, pool);
}

void TraceIndex::extend(const trace::TraceView& v,
                        std::vector<ThreadScanState>& scans,
                        util::ThreadPool* pool) {
  CLA_CHECK(scans.size() == v.thread_count(),
            "scan states do not cover the trace's threads");
  CLA_CHECK(v.thread_count() >= threads_.size(),
            "an extended trace cannot lose threads");
  view_ = v;
  const auto thread_count = static_cast<trace::ThreadId>(v.thread_count());
  threads_.resize(thread_count);

  // --- drain the scans in thread-id order ---
  RecordsByObject<CsRecord> sections;
  RecordsByObject<BarrierWaitRecord> barrier_waits;
  RecordsByObject<CondWaitRecord> cond_waits;
  RecordsByObject<CondSignalRecord> signals;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    ThreadScanState& scan = scans[tid];
    threads_[tid] = scan.info;
    // Of several creates of one child the latest (tid, index) wins, as a
    // thread-ordered overwrite from scratch would have it.
    for (const auto& [child, ref] : scan.creates) {
      auto [it, inserted] = creates_.try_emplace(child, ref);
      if (!inserted && it->second < ref) it->second = ref;
    }
    scan.creates.clear();
    for (auto it = scan.sections.begin(); it != scan.sections.end();) {
      // The key is drained even when empty: a mutex seen only released is
      // still indexed.
      std::vector<CsRecord>& out = sections[it->first];
      std::vector<CsRecord>& secs = it->second;
      auto open = secs.begin();
      for (const CsRecord& cs : secs) {
        out.push_back(cs);
        if (cs.released_ts != kUnreleased) continue;
        // Thread exited holding the lock — tolerated: the exit is the
        // release point until the scan sees the real release.
        out.back().released_ts = scan.info.exit_ts;
        out.back().released_idx = scan.info.exit_idx;
        out.back().provisional = true;
        *open++ = cs;
      }
      secs.erase(open, secs.end());
      it = secs.empty() ? scan.sections.erase(it) : std::next(it);
    }
    drain_into(scan.barrier_waits, barrier_waits);
    drain_into(scan.cond_waits, cond_waits);
    drain_into(scan.signals, signals);
  }

  extend_mutexes(std::move(sections), pool);

  // --- barriers and condvars: full regroup of every grown primitive ---
  for (auto& [object, waits] : barrier_waits) {
    BarrierIndex& bi = barriers_[object];
    bi.id = object;
    merge_by_thread(bi.waits, waits);
    build_episodes(bi);
  }
  for (auto& [object, waits] : cond_waits) {
    CondIndex& ci = conds_[object];
    ci.id = object;
    merge_by_thread(ci.waits, waits);
  }
  for (auto& [object, sigs] : signals) {
    CondIndex& ci = conds_[object];
    ci.id = object;
    std::sort(sigs.begin(), sigs.end(), signalled_before);
    const auto old = static_cast<std::ptrdiff_t>(ci.signals.size());
    ci.signals.insert(ci.signals.end(), sigs.begin(), sigs.end());
    std::inplace_merge(ci.signals.begin(), ci.signals.begin() + old,
                       ci.signals.end(), signalled_before);
  }
  if (!barrier_waits.empty()) {
    fill_positions(leave_pos_, thread_count, barriers_, &BarrierIndex::waits,
                   [](const BarrierWaitRecord& w) { return w.leave_idx; });
  }
  if (!cond_waits.empty()) {
    fill_positions(cond_end_pos_, thread_count, conds_, &CondIndex::waits,
                   [](const CondWaitRecord& w) { return w.end_idx; });
  }

  // Last finished thread (max exit ts, ties toward lower tid). Empty
  // placeholder threads never win: the critical-path walk starts here and
  // needs at least one event to stand on.
  last_thread_ = 0;
  bool have_last = false;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    if (v.thread_events(tid).empty()) continue;
    if (!have_last || threads_[tid].exit_ts > threads_[last_thread_].exit_ts) {
      last_thread_ = tid;
      have_last = true;
    }
  }
}

void TraceIndex::extend_mutexes(RecordsByObject<CsRecord> added,
                                util::ThreadPool* pool) {
  // --- the tail of every mutex: its sections acquired at or after the
  // earliest drained section (of any mutex), plus the drained ones.
  // Sections before that are final and keep their positions. Every
  // provisional section lies in the tail, because each is drained again
  // (same acquired_ts) until its real release. One cut time for all
  // mutexes keeps each thread's stale position entries a suffix: with
  // ordered timestamps, its final sections precede its tail ones.
  const std::size_t thread_count = threads_.size();
  max_hold_.resize(thread_count, 0);
  std::uint64_t from_ts = ~static_cast<std::uint64_t>(0);
  for (const auto& [object, secs] : added) {
    mutexes_.try_emplace(object).first->second.id = object;
    for (const CsRecord& cs : secs) {
      from_ts = std::min(from_ts, cs.acquired_ts);
      max_hold_[cs.tid] = std::max(max_hold_[cs.tid], cs.hold_time());
    }
  }
  struct Tail {
    MutexIndex* mutex;
    std::size_t cut;
    std::vector<CsRecord>* added;
  };
  std::vector<Tail> tails;
  std::vector<std::uint32_t> first_stale(thread_count, npos32);
  std::vector<std::size_t> stale(thread_count, 0);
  auto next_added = added.begin();
  for (auto& [object, mi] : mutexes_) {
    mi.wait_per_thread.resize(thread_count, 0);
    mi.hold_per_thread.resize(thread_count, 0);
    std::vector<CsRecord>* more = nullptr;
    if (next_added != added.end() && next_added->first == object) {
      more = &(next_added++)->second;
    }
    const auto cut = static_cast<std::size_t>(
        std::lower_bound(mi.sections.begin(), mi.sections.end(), from_ts,
                         [](const CsRecord& cs, std::uint64_t ts) {
                           return cs.acquired_ts < ts;
                         }) -
        mi.sections.begin());
    if (cut == mi.sections.size() && (more == nullptr || more->empty())) {
      continue;
    }
    for (std::size_t k = cut; k < mi.sections.size(); ++k) {
      const CsRecord& cs = mi.sections[k];
      first_stale[cs.tid] = std::min(first_stale[cs.tid], cs.acquired_idx);
      ++stale[cs.tid];
    }
    if (more != nullptr) {
      for (const CsRecord& cs : *more) {
        first_stale[cs.tid] = std::min(first_stale[cs.tid], cs.acquired_idx);
      }
    }
    tails.push_back(Tail{&mi, cut, more});
  }

  // --- rebuild the tails: drop provisional sections, add the drained
  // ones, restore ownership order. The totals follow each section that
  // leaves or joins. ---
  util::for_each_index(pool, tails.size(), [&](std::size_t k) {
    const Tail& tail = tails[k];
    MutexIndex& mi = *tail.mutex;
    std::vector<CsRecord>& secs = mi.sections;
    const auto cut = secs.begin() + static_cast<std::ptrdiff_t>(tail.cut);
    for (auto it = cut; it != secs.end(); ++it) {
      if (it->provisional) mi.uncount(*it);
    }
    secs.erase(std::remove_if(cut, secs.end(),
                              [](const CsRecord& cs) { return cs.provisional; }),
               secs.end());
    if (tail.added != nullptr) {
      for (const CsRecord& cs : *tail.added) mi.count(cs);
      if (secs.empty()) {
        secs.swap(*tail.added);
      } else {
        secs.insert(secs.end(), tail.added->begin(), tail.added->end());
      }
    }
    std::sort(secs.begin() + static_cast<std::ptrdiff_t>(tail.cut), secs.end(),
              owned_before);
  });

  // --- re-point the stale position entries ---
  acquired_pos_.resize(thread_count);
  std::vector<std::size_t> kept(thread_count);
  for (std::size_t tid = 0; tid < thread_count; ++tid) {
    auto& entries = acquired_pos_[tid];
    const auto from = std::lower_bound(
        entries.begin(), entries.end(), first_stale[tid],
        [](const Position& e, std::uint32_t idx) { return e.idx < idx; });
    if (static_cast<std::size_t>(entries.end() - from) != stale[tid]) {
      // A final section has a later event index than a tail one
      // (regressing timestamps): re-index everything.
      fill_positions(acquired_pos_, thread_count, mutexes_,
                     &MutexIndex::sections,
                     [](const CsRecord& cs) { return cs.acquired_idx; });
      return;
    }
    entries.erase(from, entries.end());
    kept[tid] = entries.size();
  }
  for (const Tail& tail : tails) {
    const std::vector<CsRecord>& secs = tail.mutex->sections;
    for (std::size_t pos = tail.cut; pos < secs.size(); ++pos) {
      acquired_pos_[secs[pos].tid].push_back(
          Position{secs[pos].acquired_idx, static_cast<std::uint32_t>(pos)});
    }
  }
  util::for_each_index(pool, thread_count, [&](std::size_t tid) {
    auto& entries = acquired_pos_[tid];
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(kept[tid]),
              entries.end(),
              [](const Position& a, const Position& b) { return a.idx < b.idx; });
  });
}

const std::vector<TraceIndex::Position>& TraceIndex::thread_sections(
    trace::ThreadId tid) const {
  static const std::vector<Position> kNone;
  return tid < acquired_pos_.size() ? acquired_pos_[tid] : kNone;
}

EventRef TraceIndex::create_event(trace::ThreadId child) const {
  auto it = creates_.find(child);
  return it == creates_.end() ? EventRef{} : it->second;
}

std::uint32_t TraceIndex::section_of(trace::ThreadId tid,
                                     std::uint32_t acquired_idx) const {
  return find_position(acquired_pos_, tid, acquired_idx);
}

std::uint32_t TraceIndex::barrier_wait_of(trace::ThreadId tid,
                                          std::uint32_t leave_idx) const {
  return find_position(leave_pos_, tid, leave_idx);
}

std::uint32_t TraceIndex::cond_wait_of(trace::ThreadId tid,
                                       std::uint32_t end_idx) const {
  return find_position(cond_end_pos_, tid, end_idx);
}

}  // namespace cla::analysis

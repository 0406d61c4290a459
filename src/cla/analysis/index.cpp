#include "cla/analysis/index.hpp"

#include <algorithm>

#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

void MutexIndex::count(const SectionRow& row, const trace::EventsView& events,
                       SlotTimes& times) {
  const std::uint64_t wait = row.wait_time(events);
  totals.add(row, wait);
  times.wait[slot] += wait;
  times.hold[slot] += row.hold_time();
  if (row.has_stack()) callsites[row.stack_id(events)].add(row, wait);
}

void MutexIndex::uncount(const SectionRow& row, const trace::EventsView& events,
                         SlotTimes& times) {
  const std::uint64_t wait = row.wait_time(events);
  totals.subtract(row, wait);
  times.wait[slot] -= wait;
  times.hold[slot] -= row.hold_time();
  if (!row.has_stack()) return;
  const auto it = callsites.find(row.stack_id(events));
  it->second.subtract(row, wait);
  if (it->second.invocations == 0) callsites.erase(it);
}

namespace {

using trace::Event;
using trace::EventType;

/// The row of `section`, released at event `released_idx`; no slot yet.
SectionRow section_row(const trace::Section& section, std::uint32_t released_idx,
                       std::uint64_t released_ts, std::uint8_t flags) {
  // MutexAcquire's arg carries the acquisition call-stack id when the
  // trace was recorded with callsite capture (0 / kNoArg = none).
  const std::uint64_t stack = section.acquire.arg;
  if (stack != 0 && stack != trace::kNoArg) flags |= SectionRow::kHasStack;
  if (section.contended()) flags |= SectionRow::kContended;
  return SectionRow{section.acquired.ts, released_ts, section.acquire.idx,
                    section.acquired.idx, released_idx, 0, flags};
}

/// Puts `row` into `rows` in acquired_idx order. A scan closes sections in
/// release order, which only nesting takes out of acquisition order.
void insert_in_event_order(SectionTable& rows, const SectionRow& row) {
  const bool last = rows.empty() || rows.back().acquired_idx < row.acquired_idx;
  rows.insert(last ? rows.end()
                   : std::upper_bound(rows.begin(), rows.end(), row.acquired_idx,
                                      [](std::uint32_t idx, const SectionRow& r) {
                                        return idx < r.acquired_idx;
                                      }),
              row);
}

/// Time order of a condvar's signals, ties toward the lower (tid, idx).
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
    const trace::Step step = protocol_.step(i, e);
    // Sync ops: every pairing event (a violating one too) and signals.
    if (step.what != trace::Transition::None) ++info.sync_ops;
    switch (e.type) {
      case EventType::ThreadCreate:
        creates.emplace_back(static_cast<trace::ThreadId>(e.object),
                             EventRef{tid, i});
        break;
      case EventType::MutexReleased:
        if (step.what == trace::Transition::Released) {
          insert_in_event_order(sections, section_row(step.section, i, e.ts, 0));
        } else {
          stray_releases.push_back(e.object);
        }
        break;
      case EventType::BarrierLeave:
        if (step.what == trace::Transition::Left) {
          const trace::BarrierWait& wait = step.barrier;
          barrier_waits[e.object].push_back(BarrierWaitRecord{
              tid, wait.arrive.idx, i, wait.arrive.ts, e.ts, 0,
              wait.episode_key()});
        }
        break;
      case EventType::CondWaitEnd:
        if (step.what == trace::Transition::WaitEnded) {
          const trace::CondWait& wait = step.wait;
          cond_waits[e.object].push_back(
              CondWaitRecord{tid, wait.begin.idx, i, wait.begin.ts, e.ts});
        }
        break;
      case EventType::CondSignal:
      case EventType::CondBroadcast:
        ++info.sync_ops;
        signals[e.object].push_back(CondSignalRecord{
            tid, i, e.ts, e.type == EventType::CondBroadcast});
        break;
      default:
        break;
    }
  }
  next_ = limit;
}

void ThreadScanState::close_held_sections() {
  for (const auto& [object, lock] : protocol_.locks()) {
    for (const trace::Section& held : lock.held) {
      insert_in_event_order(sections,
                            section_row(held, info.exit_idx, info.exit_ts,
                                        SectionRow::kProvisional));
    }
  }
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
    // A thread that exited holding a lock is tolerated: the exit is the
    // release point until the scan sees the real release.
    scan.close_held_sections();
    drain_into(scan.barrier_waits, barrier_waits);
    drain_into(scan.cond_waits, cond_waits);
    drain_into(scan.signals, signals);
  }

  extend_mutexes(scans, pool);

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

std::uint32_t TraceIndex::slot_for(trace::ObjectId mutex) {
  const auto [it, inserted] =
      slot_of_.try_emplace(mutex, static_cast<std::uint32_t>(slots_.size()));
  if (inserted) {
    MutexIndex& mi = mutexes_[mutex];
    mi.id = mutex;
    mi.slot = it->second;
    slots_.push_back(&mi);
    sorted_.push_back(0);
    for (SlotTimes& times : slot_times_) times.resize(slots_.size());
  }
  return it->second;
}

void TraceIndex::extend_mutexes(std::vector<ThreadScanState>& scans,
                                util::ThreadPool* pool) {
  const std::size_t thread_count = threads_.size();
  max_hold_.resize(thread_count, 0);
  sections_.resize(thread_count);
  slot_times_.resize(thread_count);
  for (SlotTimes& times : slot_times_) times.resize(slots_.size());
  // The slots whose order grows, each once.
  std::vector<std::uint32_t> grown;

  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    ThreadScanState& scan = scans[tid];
    for (const trace::ObjectId mutex : scan.stray_releases) slot_for(mutex);
    scan.stray_releases.clear();
    SectionTable& drained = scan.sections;
    SectionTable& table = sections_[tid];
    const trace::EventsView& events = view_.thread_events(tid);
    SlotTimes& times = slot_times_[tid];
    std::uint64_t& max_hold = max_hold_[tid];
    // Rows acquired no later than the table's last one replace provisional
    // rows: each section still held at the last extend left one, and the
    // rest of the drained rows were acquired since.
    std::size_t k = 0;
    for (; k < drained.size() && !table.empty() &&
           drained[k].acquired_idx <= table.back().acquired_idx;
         ++k) {
      const std::uint32_t at = row_of(tid, drained[k].acquired_idx);
      CLA_ASSERT(at != npos32 && table[at].provisional(),
                 "a drained section replaces no provisional row");
      MutexIndex& mi = *slots_[table[at].slot];
      mi.uncount(table[at], events, times);
      drained[k].slot = table[at].slot;
      table[at] = drained[k];
      mi.count(table[at], events, times);
      max_hold = std::max(max_hold, table[at].hold_time());
    }
    const std::size_t first_new = table.size();
    if (table.empty()) {
      table = std::move(drained);
    } else {
      table.insert(table.end(), drained.begin() + static_cast<std::ptrdiff_t>(k),
                   drained.end());
    }
    drained.clear();
    for (std::size_t r = first_new; r < table.size(); ++r) {
      SectionRow& row = table[r];
      row.slot = slot_for(events.object_at(row.acquired_idx));
      MutexIndex& mi = *slots_[row.slot];
      mi.count(row, events, times);
      if (mi.order.size() == sorted_[row.slot]) grown.push_back(row.slot);
      mi.order.push_back(OwnedSection{
          row.acquired_ts, SectionRef{tid, static_cast<std::uint32_t>(r)}});
      max_hold = std::max(max_hold, row.hold_time());
    }
  }

  // --- each grown mutex sorts its new references and merges them in from
  // the first old one that sorts after the earliest of them; a live tail
  // usually sorts after every old one and needs no merge ---
  util::for_each_index(pool, grown.size(), [&](std::size_t g) {
    const std::uint32_t slot = grown[g];
    auto& order = slots_[slot]->order;
    const auto fresh = order.begin() + static_cast<std::ptrdiff_t>(sorted_[slot]);
    std::sort(fresh, order.end());
    if (fresh != order.begin() && *fresh < *(fresh - 1)) {
      std::inplace_merge(std::upper_bound(order.begin(), fresh, *fresh), fresh,
                         order.end());
    }
    sorted_[slot] = order.size();
  });
}

const SectionTable& TraceIndex::thread_sections(trace::ThreadId tid) const {
  static const SectionTable kNone;
  return tid < sections_.size() ? sections_[tid] : kNone;
}

EventRef TraceIndex::create_event(trace::ThreadId child) const {
  auto it = creates_.find(child);
  return it == creates_.end() ? EventRef{} : it->second;
}

std::uint32_t TraceIndex::row_of(trace::ThreadId tid,
                                 std::uint32_t acquired_idx) const {
  if (tid >= sections_.size()) return npos32;
  const SectionTable& rows = sections_[tid];
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), acquired_idx,
      [](const SectionRow& r, std::uint32_t idx) { return r.acquired_idx < idx; });
  return it != rows.end() && it->acquired_idx == acquired_idx
             ? static_cast<std::uint32_t>(it - rows.begin())
             : npos32;
}

std::optional<SectionRef> TraceIndex::previous_owner(SectionRef section) const {
  const SectionRow& r = row(section);
  const auto& order = slots_[r.slot]->order;
  const auto it = std::lower_bound(order.begin(), order.end(),
                                   OwnedSection{r.acquired_ts, section});
  if (it == order.begin()) return std::nullopt;
  return (it - 1)->section;
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

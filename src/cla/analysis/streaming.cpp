// Bounded-RSS streaming analysis engine — see streaming.hpp for the
// phase breakdown and DESIGN §12 for the correctness argument.
//
// The sweep pairs events with one trace::ThreadProtocol per thread, the
// automaton the index scan uses, so both see the same sections and waits.
// It resolves wake-ups with the semantics of resolve_wakeup()
// (resolver.cpp) but holds only carry state: per-mutex "previous owner",
// per-barrier live episode window, per-cond latest-signal-per-thread.
// Two documented divergences exist, both requiring physically impossible
// interleavings:
//   - a barrier member arriving after another member of the *same*
//     episode already left (the episode may be mis-resolved), and
//   - more than kEpisodeWindow distinct barrier generations opening at a
//     single timestamp (an episode can be retired while a leave at that
//     timestamp still references it).
#include "cla/analysis/streaming.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

namespace {

using trace::EventType;

/// Live barrier generations kept per barrier; the oldest retires beyond
/// this (windowed carry-state retirement).
constexpr std::size_t kEpisodeWindow = 64;
/// Events between deadline/budget polls.
constexpr std::uint64_t kPollMask = 0xffff;
/// Events per pass-2 rescan chunk (drain interval).
constexpr std::uint32_t kRescanChunk = 1u << 16;
/// Coarse bytes of a map node's tree links, on top of its payload.
constexpr std::uint64_t kNodeBytes = 48;

/// Coarse byte accounting of retained state, shared across pool tasks.
class Budget {
 public:
  Budget(std::uint64_t limit, const util::Deadline* deadline)
      : limit_(limit), deadline_(deadline) {}

  void charge(std::uint64_t bytes) {
    const std::uint64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    if (limit_ != 0 && now > limit_) {
      throw util::ResourceLimitError(
          "streaming analysis exceeds the memory budget: " +
          std::to_string(now) + " bytes retained > --max-rss-mb budget of " +
          std::to_string(limit_) + " bytes (CLA_E_RSS_BUDGET_EXCEEDED)");
    }
  }
  void release(std::uint64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void poll(const char* what) const {
    if (deadline_ != nullptr) deadline_->check(what);
  }
  std::uint64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t limit_;
  const util::Deadline* deadline_;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// Position of a segment in its thread's *unsorted* vector, registered to
/// receive a releaser EventRef once the closing event streams by.
struct SegPatch {
  trace::ThreadId tid = 0;
  std::uint32_t pos = 0;
};

/// Running best-arriver of one barrier generation. The strict compare
/// (greater ts, or equal ts and smaller tid) never replaces on an exact
/// tie, which reproduces the full index's first-record-wins rule.
struct EpisodeState {
  bool has = false;
  bool counted = false;  ///< a completed wait counted this episode
  std::uint64_t best_ts = 0;
  trace::ThreadId best_tid = 0;
  std::uint32_t best_arrive_idx = 0;
};

struct BarrierCarry {
  std::map<std::uint32_t, EpisodeState> live;  ///< generation key -> state
  std::uint64_t episodes_completed = 0;        ///< distinct keys with a wait
};

/// Per-mutex carry: the most recently *acquired* section (the full
/// index's previous_owner() of the next acquirer in its acquired_ts-sorted
/// order — the sweep streams Acquired events in exactly that order).
struct MutexCarry {
  EventRef last_acquired;  ///< the section's MutexAcquired; invalid if none
  EventRef released;       ///< its MutexReleased; invalid while held
};

/// A BarrierLeave / CondWaitEnd whose resolution waits until the sweep
/// strictly passes its timestamp (so every same-ts arrive/signal, from
/// any thread, lands first — exactly the set the full index consults).
struct Deferred {
  bool is_barrier = false;
  trace::ThreadId tid = 0;
  std::uint32_t idx = 0;
  std::uint64_t ts = 0;
  trace::ObjectId object = trace::kNoObject;
  std::uint32_t key = 0;              ///< barrier: episode key
  std::uint32_t self_arrive_idx = 0;  ///< barrier: own arrive event
  std::uint64_t begin_ts = 0;         ///< cond: wait begin timestamp
};

struct JoinCandidate {
  trace::ThreadId tid = 0;
  std::uint32_t idx = 0;
  std::uint64_t begin_ts = 0;
  trace::ThreadId target = 0;
};

struct StartCandidate {
  trace::ThreadId tid = 0;
  std::uint32_t idx = 0;
};

/// The sweep: resolves every blocking wake-up into per-thread segment
/// vectors using carry state only.
class Sweep {
 public:
  Sweep(const trace::TraceView& view, Budget& budget)
      : view_(view), budget_(budget) {
    const auto thread_count = static_cast<trace::ThreadId>(view.thread_count());
    segs_.resize(thread_count);
    protocols_.resize(thread_count);
    join_begins_.resize(thread_count);
    creates_.resize(thread_count);
    exit_idx_.resize(thread_count);
    exit_ts_.resize(thread_count);
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      const trace::EventsView& events = view.thread_events(tid);
      CLA_CHECK(!events.empty(), "trace thread has no events");
      exit_idx_[tid] = static_cast<std::uint32_t>(events.size() - 1);
      exit_ts_[tid] = events.ts_at(exit_idx_[tid]);
      // Every thread opens with its initial segment (event 0), exactly as
      // SegmentDag::build does; a blocking boundary at event 0 attaches
      // its hop to this segment instead of opening a second one.
      Segment s;
      s.begin_idx = 0;
      s.begin_ts = events.ts_at(0);
      s.kind = events.type_at(0);
      s.object = events.object_at(0);
      segs_[tid].push_back(s);
    }
  }

  void run() {
    const auto thread_count = static_cast<trace::ThreadId>(view_.thread_count());
    // k-way merge of the per-thread streams in (ts, tid) order.
    using HeapItem = std::pair<std::uint64_t, trace::ThreadId>;
    std::vector<HeapItem> heap;
    std::vector<std::uint32_t> cursor(thread_count, 0);
    heap.reserve(thread_count);
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      heap.emplace_back(view_.thread_events(tid).ts_at(0), tid);
    }
    const auto heap_greater = [](const HeapItem& a, const HeapItem& b) {
      return a > b;  // min-heap on (ts, tid)
    };
    std::make_heap(heap.begin(), heap.end(), heap_greater);

    std::uint64_t steps = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_greater);
      const auto [ts, tid] = heap.back();
      heap.pop_back();
      flush_deferred(ts);
      if ((++steps & kPollMask) == 0) {
        budget_.poll("streaming sweep");
        account();
      }
      const std::uint32_t idx = cursor[tid];
      process(tid, idx, ts);
      const trace::EventsView& events = view_.thread_events(tid);
      if (++cursor[tid] < events.size()) {
        // The merge needs each thread in time order; strict validation
        // rejects a clock that steps back and repair clamps it, so only an
        // unvalidated trace gets here with one.
        const std::uint64_t next_ts = events.ts_at(cursor[tid]);
        if (next_ts < ts) {
          throw util::ValidationError(
              "bounded analysis: thread " + std::to_string(tid) +
              "'s timestamp " + std::to_string(next_ts) +
              " goes backwards at event " + std::to_string(cursor[tid]) +
              " (CLA_E_TS_REGRESSION)");
        }
        heap.emplace_back(next_ts, tid);
        std::push_heap(heap.begin(), heap.end(), heap_greater);
      }
    }
    finish();
  }

  /// Sorted per-thread segment vectors (move out after run()).
  std::vector<std::vector<Segment>> take_segments() { return std::move(segs_); }

  trace::ThreadId last_finished_thread() const {
    trace::ThreadId last = 0;
    for (trace::ThreadId tid = 1;
         tid < static_cast<trace::ThreadId>(view_.thread_count()); ++tid) {
      if (exit_ts_[tid] > exit_ts_[last]) last = tid;
    }
    return last;
  }

  /// Distinct completed barrier generations, per barrier object.
  std::uint64_t episodes_of(trace::ObjectId object) const {
    auto it = barrier_carry_.find(object);
    return it == barrier_carry_.end() ? 0 : it->second.episodes_completed;
  }

 private:
  void emit_boundary(trace::ThreadId tid, std::uint32_t idx, std::uint64_t ts,
                     EventType kind, trace::ObjectId object, EventRef jump,
                     std::vector<SegPatch>* patch_into) {
    std::vector<Segment>& segs = segs_[tid];
    if (idx == 0) {
      // Merge into the initial segment (mirrors SegmentDag::build).
      if (jump.valid()) segs[0].jump_to = jump;
      if (patch_into != nullptr) patch_into->push_back(SegPatch{tid, 0});
      return;
    }
    Segment s;
    s.begin_idx = idx;
    s.begin_ts = ts;
    s.jump_to = jump;
    s.kind = kind;
    s.object = object;
    if (patch_into != nullptr) {
      patch_into->push_back(
          SegPatch{tid, static_cast<std::uint32_t>(segs.size())});
    }
    segs.push_back(s);
  }

  void process(trace::ThreadId tid, std::uint32_t idx, std::uint64_t ts) {
    const trace::EventsView& events = view_.thread_events(tid);
    const EventType type = events.type_at(idx);
    switch (type) {
      case EventType::ThreadStart:
        if (tid != 0) starts_.push_back(StartCandidate{tid, idx});
        break;
      case EventType::ThreadCreate:
        creates_[tid].emplace_back(
            static_cast<trace::ThreadId>(events.object_at(idx)),
            EventRef{tid, idx});
        break;
      case EventType::JoinBegin:
        join_begins_[tid][events.object_at(idx)] = ts;
        break;
      case EventType::JoinEnd: {
        const trace::ObjectId object = events.object_at(idx);
        const auto target = static_cast<trace::ThreadId>(object);
        if (target >= view_.thread_count()) break;
        auto it = join_begins_[tid].find(object);
        const std::uint64_t begin_ts =
            it == join_begins_[tid].end() ? ts : it->second;
        joins_.push_back(JoinCandidate{tid, idx, begin_ts, target});
        break;
      }
      case EventType::CondSignal:
      case EventType::CondBroadcast: {
        auto& latest = cond_signals_[events.object_at(idx)][tid];
        latest = {ts, idx};
        break;
      }
      default:
        paired(tid, idx, ts, events.object_at(idx),
               protocols_[tid].step(idx, events[idx]));
        break;
    }
  }

  /// Acts on what a pairing event opened or closed.
  void paired(trace::ThreadId tid, std::uint32_t idx, std::uint64_t ts,
              trace::ObjectId object, const trace::Step& step) {
    switch (step.what) {
      case trace::Transition::Acquired:
        on_acquired(tid, idx, ts, object, step.section);
        break;
      case trace::Transition::Released:
        on_released(tid, idx, object, step.section);
        break;
      case trace::Transition::Arrived:
        note_arrival(tid, object, step.barrier.episode_key(), ts, idx);
        break;
      case trace::Transition::Left:
        deferred_.push_back(Deferred{.is_barrier = true, .tid = tid,
                                     .idx = idx, .ts = ts, .object = object,
                                     .key = step.barrier.episode_key(),
                                     .self_arrive_idx =
                                         step.barrier.arrive.idx});
        break;
      case trace::Transition::WaitEnded:
        if (ts == step.wait.begin.ts) break;  // did not block
        deferred_.push_back(Deferred{.tid = tid, .idx = idx, .ts = ts,
                                     .object = object,
                                     .begin_ts = step.wait.begin.ts});
        break;
      default:
        break;  // a request, a wait begin, or a violation (no record)
    }
  }

  void on_acquired(trace::ThreadId tid, std::uint32_t idx, std::uint64_t ts,
                   trace::ObjectId object, const trace::Section& section) {
    MutexCarry& carry = mutex_carry_[object];
    if (section.contended() && carry.last_acquired.valid()) {
      // resolve_wakeup(MutexAcquired): releaser = the previous owner's
      // release event. The sweep streams Acquired events in the sorted
      // ownership order, so carry == previous_owner().
      if (carry.released.valid()) {
        emit_boundary(tid, idx, ts, EventType::MutexAcquired, object,
                      carry.released, nullptr);
      } else {
        // Previous owner still inside: the releaser index is unknown
        // until its MutexReleased (or thread exit) streams by.
        emit_boundary(tid, idx, ts, EventType::MutexAcquired, object,
                      EventRef{}, &waiters_[carry.last_acquired]);
      }
    }
    // This section becomes the new "previous" for the next acquirer.
    carry = MutexCarry{EventRef{tid, idx}, EventRef{}};
  }

  void on_released(trace::ThreadId tid, std::uint32_t idx,
                   trace::ObjectId object, const trace::Section& section) {
    const EventRef acquired{tid, section.acquired.idx};
    if (const auto it = waiters_.find(acquired); it != waiters_.end()) {
      patch(it->second, EventRef{tid, idx});
      waiters_.erase(it);
    }
    MutexCarry& carry = mutex_carry_[object];
    if (carry.last_acquired == acquired) carry.released = EventRef{tid, idx};
  }

  /// Registers an arrive into its episode window (called on Arrive — the
  /// key is already determined there, because no other wait of this
  /// (thread, barrier) completes before the matching Leave).
  void note_arrival(trace::ThreadId tid, trace::ObjectId object,
                    std::uint32_t key, std::uint64_t arrive_ts,
                    std::uint32_t arrive_idx) {
    BarrierCarry& carry = barrier_carry_[object];
    auto [it, inserted] = carry.live.try_emplace(key);
    EpisodeState& ep = it->second;
    if (inserted && carry.live.size() > kEpisodeWindow) {
      // Windowed retirement: the oldest generation leaves the carry.
      carry.live.erase(carry.live.begin());
    }
    if (!ep.has || arrive_ts > ep.best_ts ||
        (arrive_ts == ep.best_ts && tid < ep.best_tid)) {
      ep.has = true;
      ep.best_ts = arrive_ts;
      ep.best_tid = tid;
      ep.best_arrive_idx = arrive_idx;
    }
  }

  void flush_deferred(std::uint64_t now_ts) {
    while (!deferred_.empty() && deferred_.front().ts < now_ts) {
      resolve_deferred(deferred_.front());
      deferred_.pop_front();
    }
  }

  void resolve_deferred(const Deferred& d) {
    if (d.is_barrier) {
      BarrierCarry& carry = barrier_carry_[d.object];
      auto it = carry.live.find(d.key);
      if (it == carry.live.end()) return;  // retired (documented divergence)
      EpisodeState& ep = it->second;
      if (!ep.counted) {
        ep.counted = true;
        ++carry.episodes_completed;
      }
      if (!ep.has) return;
      if (ep.best_tid == d.tid && ep.best_arrive_idx == d.self_arrive_idx) {
        return;  // the last arriver never blocked
      }
      emit_boundary(d.tid, d.idx, d.ts, EventType::BarrierLeave, d.object,
                    EventRef{ep.best_tid, ep.best_arrive_idx}, nullptr);
      return;
    }
    // Cond wait end: latest foreign signal in (begin, end], falling back
    // to the latest foreign signal <= end (match_cond_signal's rules;
    // every signal with ts <= end has streamed by flush time, and the
    // per-thread latest dominates its thread's earlier signals).
    auto cit = cond_signals_.find(d.object);
    if (cit == cond_signals_.end()) return;
    bool have_primary = false, have_fallback = false;
    std::uint64_t best_ts = 0, fb_ts = 0;
    trace::ThreadId best_tid = 0, fb_tid = 0;
    std::uint32_t best_idx = 0, fb_idx = 0;
    for (const auto& [stid, sig] : cit->second) {
      if (stid == d.tid) continue;  // a thread cannot signal itself awake
      const auto [sts, sidx] = sig;
      if (sts > d.begin_ts) {
        if (!have_primary || sts > best_ts ||
            (sts == best_ts && stid > best_tid)) {
          have_primary = true;
          best_ts = sts;
          best_tid = stid;
          best_idx = sidx;
        }
      }
      if (!have_fallback || sts > fb_ts || (sts == fb_ts && stid > fb_tid)) {
        have_fallback = true;
        fb_ts = sts;
        fb_tid = stid;
        fb_idx = sidx;
      }
    }
    EventRef signal;
    if (have_primary) {
      signal = EventRef{best_tid, best_idx};
    } else if (have_fallback) {
      signal = EventRef{fb_tid, fb_idx};
    }
    if (signal.valid()) {
      emit_boundary(d.tid, d.idx, d.ts, EventType::CondWaitEnd, d.object,
                    signal, nullptr);
    }
  }

  void patch(const std::vector<SegPatch>& waiters, EventRef releaser) {
    for (const SegPatch& w : waiters) {
      segs_[w.tid][w.pos].jump_to = releaser;
    }
  }

  void finish() {
    // Everything has streamed: flush the tail of the deferral queue.
    while (!deferred_.empty()) {
      resolve_deferred(deferred_.front());
      deferred_.pop_front();
    }
    // Sections never released close at their owner's exit.
    for (const auto& [acquired, waiters] : waiters_) {
      patch(waiters, EventRef{acquired.tid, exit_idx_[acquired.tid]});
    }
    // The creates map replicates the full index's last-writer-wins merge
    // (tid-ascending, then event order).
    std::map<trace::ThreadId, EventRef> creates;
    for (const auto& per_thread : creates_) {
      for (const auto& [child, ref] : per_thread) creates[child] = ref;
    }
    for (const StartCandidate& s : starts_) {
      auto it = creates.find(s.tid);
      if (it == creates.end()) continue;
      emit_boundary(s.tid, s.idx, view_.thread_events(s.tid).ts_at(s.idx),
                    EventType::ThreadStart, trace::kNoObject, it->second,
                    nullptr);
    }
    // Joins: blocked iff the target outlived the matching JoinBegin.
    for (const JoinCandidate& j : joins_) {
      if (exit_ts_[j.target] <= j.begin_ts) continue;
      emit_boundary(j.tid, j.idx, view_.thread_events(j.tid).ts_at(j.idx),
                    EventType::JoinEnd,
                    static_cast<trace::ObjectId>(j.target),
                    EventRef{j.target, exit_idx_[j.target]}, nullptr);
    }
    // Deferred resolutions appended out of event order; restore it.
    for (auto& segs : segs_) {
      std::sort(segs.begin(), segs.end(),
                [](const Segment& a, const Segment& b) {
                  return a.begin_idx < b.begin_idx;
                });
    }
    account();
  }

  /// Coarse retained-state charge: recomputed periodically, charged as a
  /// delta against the shared budget.
  void account() {
    std::uint64_t bytes = 0;
    for (const auto& segs : segs_) bytes += segs.capacity() * sizeof(Segment);
    for (const trace::ThreadProtocol& protocol : protocols_) {
      bytes += protocol.held_count() *
               (sizeof(trace::Section) + 2 * sizeof(SegPatch));
    }
    bytes += deferred_.size() * sizeof(Deferred);
    bytes += joins_.size() * sizeof(JoinCandidate);
    bytes += starts_.size() * sizeof(StartCandidate);
    for (const auto& c : creates_) {
      bytes += c.size() * (sizeof(trace::ThreadId) + sizeof(EventRef));
    }
    for (const auto& [object, carry] : barrier_carry_) {
      (void)object;
      bytes += carry.live.size() * (sizeof(EpisodeState) + 32);
    }
    for (const auto& [object, sigs] : cond_signals_) {
      (void)object;
      bytes += sigs.size() * 48;
    }
    for (const auto& jb : join_begins_) bytes += jb.size() * 48;
    if (bytes > accounted_) {
      budget_.charge(bytes - accounted_);
    } else {
      budget_.release(accounted_ - bytes);
    }
    accounted_ = bytes;
  }

  const trace::TraceView& view_;
  Budget& budget_;
  std::vector<std::vector<Segment>> segs_;
  std::vector<trace::ThreadProtocol> protocols_;
  /// Segments blocked on a still-held section, keyed by its Acquired event.
  std::map<EventRef, std::vector<SegPatch>> waiters_;
  std::vector<std::map<trace::ObjectId, std::uint64_t>> join_begins_;
  std::vector<std::vector<std::pair<trace::ThreadId, EventRef>>> creates_;
  std::vector<std::uint32_t> exit_idx_;
  std::vector<std::uint64_t> exit_ts_;
  std::map<trace::ObjectId, MutexCarry> mutex_carry_;
  std::map<trace::ObjectId, BarrierCarry> barrier_carry_;
  std::map<trace::ObjectId,
           std::map<trace::ThreadId, std::pair<std::uint64_t, std::uint32_t>>>
      cond_signals_;
  std::deque<Deferred> deferred_;
  std::vector<JoinCandidate> joins_;
  std::vector<StartCandidate> starts_;
  std::uint64_t accounted_ = 0;
};

/// Pass 2's output: the per-primitive totals the stats assembly reads,
/// shared by the pool's rescan tasks. Every fold is an integer sum, so the
/// order in which threads' chunks land cannot change a total; the
/// floating-point figures are all computed afterwards, by assemble_stats.
struct RescanTotals {
  explicit RescanTotals(std::size_t thread_count)
      : threads(thread_count), times(thread_count) {}

  std::mutex mu;  ///< guards the maps (threads[tid], times[tid] are per-task)
  std::vector<ThreadInfo> threads;
  std::vector<SlotTimes> times;
  /// `order` stays empty; slots are numbered in first-use order, which
  /// no figure depends on.
  std::map<trace::ObjectId, MutexIndex> mutexes;
  std::map<trace::ObjectId, LockPathTotals> on_path;
  std::map<trace::ObjectId, BarrierTotals> barriers;
  std::map<trace::ObjectId, CondTotals> conds;
};

/// Pass 2: per-thread chunked rescan folding each closed record into the
/// shared totals (MutexIndex::count, the fold TraceIndex::extend() uses),
/// draining closed records after every chunk so the transient footprint
/// stays bounded by open records + one chunk.
void rescan_thread(const trace::TraceView& view, trace::ThreadId tid,
                   const CriticalPath& path, Budget& budget,
                   RescanTotals& totals) {
  const trace::EventsView& events = view.thread_events(tid);
  const std::size_t thread_count = view.thread_count();
  ThreadScanState state;
  std::uint64_t accounted = 0;

  // The shared totals of `object`, created (and charged) on first use and
  // remembered for this thread: the map nodes are stable, so each mutex
  // costs one shared-map lookup per thread, not one per section.
  std::unordered_map<trace::ObjectId, std::pair<MutexIndex*, LockPathTotals*>>
      seen;
  const auto lock_totals = [&](trace::ObjectId object) {
    auto& found = seen[object];
    if (found.first != nullptr) return found;
    auto [it, inserted] = totals.mutexes.try_emplace(object);
    MutexIndex& mi = it->second;
    if (inserted) {
      mi.id = object;
      mi.slot = static_cast<std::uint32_t>(totals.mutexes.size() - 1);
      budget.charge(sizeof(MutexIndex) + sizeof(LockPathTotals) +
                    2 * kNodeBytes + 2 * thread_count * sizeof(std::uint64_t));
    }
    found = {&mi, &totals.on_path[object]};
    return found;
  };

  const auto drain = [&] {
    // The folds are integer sums, so the order of the rows cannot change
    // a total.
    const std::lock_guard<std::mutex> lock(totals.mu);
    for (const trace::ObjectId object : state.stray_releases) {
      lock_totals(object);
    }
    state.stray_releases.clear();
    SlotTimes& times = totals.times[tid];
    for (const SectionRow& row : state.sections) {
      const auto [mi, on_path] = lock_totals(events.object_at(row.acquired_idx));
      const std::size_t stacks = mi->callsites.size() + on_path->callsites.size();
      if (mi->slot >= times.wait.size()) times.resize(totals.mutexes.size());
      mi->count(row, events, times);
      on_path->add(path.overlap(tid, row.acquired_ts, row.released_ts),
                   row.contended(), row.stack_id(events));
      const std::size_t new_stacks =
          mi->callsites.size() + on_path->callsites.size() - stacks;
      if (new_stacks != 0) {
        budget.charge(new_stacks * (sizeof(SectionTotals) + kNodeBytes));
      }
    }
    state.sections.clear();
    for (auto& [object, waits] : state.barrier_waits) {
      auto [it, inserted] = totals.barriers.try_emplace(object);
      BarrierTotals& bt = it->second;
      if (inserted) {
        bt.wait_per_thread.resize(thread_count, 0);
        budget.charge(sizeof(BarrierTotals) + kNodeBytes +
                      thread_count * sizeof(std::uint64_t));
      }
      for (const auto& w : waits) bt.add(w);
      waits.clear();
    }
    for (auto& [object, waits] : state.cond_waits) {
      CondTotals& ct = totals.conds[object];
      for (const auto& w : waits) ct.add(w);
      waits.clear();
    }
    for (auto& [object, sigs] : state.signals) {
      totals.conds[object].signals += sigs.size();
      sigs.clear();
    }
    state.creates.clear();
  };

  for (trace::ChunkCursor cursor = view.thread_cursor(tid); !cursor.done();) {
    budget.poll("streaming stats rescan");
    state.consume(events, tid, cursor.next(kRescanChunk).end);
    drain();
    const std::uint64_t bytes =
        state.protocol().held_count() * sizeof(trace::Section) + 4096;
    if (bytes > accounted) {
      budget.charge(bytes - accounted);
    } else {
      budget.release(accounted - bytes);
    }
    accounted = bytes;
  }
  // Thread exited holding a lock: close at exit, exactly as the index does.
  state.close_held_sections();
  drain();
  budget.release(accounted);
  totals.threads[tid] = state.info;
}

}  // namespace

StreamingOutcome analyze_streaming(const trace::TraceView& view,
                                   const StatsOptions& options,
                                   util::ThreadPool* pool,
                                   std::uint64_t budget_bytes,
                                   const util::Deadline* deadline) {
  CLA_CHECK(view.thread_count() > 0, "streaming analysis of an empty trace");
  StreamingOutcome out;
  Budget budget(budget_bytes, deadline);

  // --- phase 1: the sweep ---
  std::uint64_t t0 = util::now_ns();
  Sweep sweep(view, budget);
  sweep.run();
  const trace::ThreadId last_thread = sweep.last_finished_thread();
  out.timings.sweep_ns = util::now_ns() - t0;

  // --- phase 2: the retained segments become the DAG ---
  t0 = util::now_ns();
  SegmentDag dag(view, sweep.take_segments(), last_thread);
  budget.charge(dag.segment_count() * sizeof(Segment));
  out.timings.dag_ns = util::now_ns() - t0;

  // --- phase 3: the merge walk ---
  t0 = util::now_ns();
  CriticalPath path = compute_critical_path(dag, pool, deadline,
                                            &out.walk_stats);
  budget.charge(path.intervals.size() * sizeof(PathInterval) * 2 +
                path.jumps.size() * sizeof(PathJump));
  out.timings.walk_ns = util::now_ns() - t0;

  // --- phase 4: stats from per-thread rescans ---
  t0 = util::now_ns();
  const std::size_t thread_count = view.thread_count();
  RescanTotals totals(thread_count);
  util::for_each_index(pool, thread_count, [&](std::size_t tid) {
    rescan_thread(view, static_cast<trace::ThreadId>(tid), path, budget,
                  totals);
  });
  for (auto& [id, bt] : totals.barriers) bt.episodes = sweep.episodes_of(id);
  const std::size_t slots = totals.mutexes.size();
  std::vector<const MutexIndex*> mutexes(slots);
  std::vector<LockPathTotals> on_path(slots);
  for (const auto& [id, mi] : totals.mutexes) {
    mutexes[mi.slot] = &mi;
    on_path[mi.slot] = std::move(totals.on_path[id]);
  }
  for (SlotTimes& times : totals.times) times.resize(slots);
  LockTable table;
  out.result = assemble_stats(view,
                              StatsInputs{totals.threads, mutexes, on_path,
                                          totals.times, totals.barriers,
                                          totals.conds},
                              std::move(path), options, table);
  out.timings.stats_ns = util::now_ns() - t0;
  out.peak_bytes = budget.peak();
  return out;
}

}  // namespace cla::analysis

// A paper-literal oracle for the analysis, free of performance concerns
// and of the production index.
//
//   - Sections: each thread's event columns are paired directly
//     (MutexAcquire -> MutexAcquired -> MutexReleased, innermost release
//     first). An event that breaks the pairing is ignored. A section still
//     held at the thread's last event is closed there, as DESIGN §12 does
//     for provisional sections.
//   - Ownership order: a mutex's sections sorted by (acquired_ts, tid,
//     acquired_idx). The section before a contended acquisition released
//     the lock to it: "the thread holding the same lock adjacently before
//     the blocked thread" (§III.A).
//   - Barrier waits (BarrierArrive -> BarrierLeave on one barrier; a second
//     arrival before the leave is ignored) group into episodes by the
//     recorded generation, or by the thread's wait ordinal when none is
//     recorded (DESIGN §3). A wait's releaser is the arrival of its
//     episode's last arriver, "the thread reaching the same barrier
//     lastly" (§III.A): the latest arrival, ties toward the lower tid. The
//     last arriver itself did not block.
//   - Condvar waits (CondWaitBegin -> CondWaitEnd on one condvar, one open
//     per thread) are woken by the latest signal or broadcast of another
//     thread in (begin, end], else by the latest one at or before end
//     (DESIGN §3); a wait that ended when it began, or that no signal can
//     have woken, did not block.
//   - The walk (§III.A, Fig. 2): from the last event of the last thread to
//     finish, walk each thread's stream backwards and jump to the releaser
//     of every wake-up that blocked. Mutex, barrier and condvar releasers
//     come from the rules above; thread start and join are resolved by
//     resolve_wakeup().
//   - Table 2: the per-lock and per-callsite integer figures folded over
//     every section, with each section's overlap with the path measured
//     against every path interval of its thread.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/resolver.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/trace_view.hpp"

namespace cla::test_support {

/// One critical section, as the oracle paired it.
struct OracleSection {
  trace::ThreadId tid = 0;
  std::uint32_t acquired_idx = 0;
  std::uint32_t released_idx = 0;
  std::uint64_t acquire_ts = 0;
  std::uint64_t acquired_ts = 0;
  std::uint64_t released_ts = 0;
  std::uint64_t stack = 0;  ///< acquisition call-stack id, 0 = none
  bool contended = false;
};

/// Table 2's integer figures for one lock or one (lock, callsite).
struct Table2Fold {
  std::uint64_t invocations = 0, contended = 0, wait = 0, hold = 0;
  std::uint64_t cp_invocations = 0, cp_contended = 0, cp_hold = 0;
  bool operator==(const Table2Fold&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Table2Fold& f) {
    return os << "{invocations " << f.invocations << ", contended "
              << f.contended << ", wait " << f.wait << ", hold " << f.hold
              << ", on path " << f.cp_invocations << "/" << f.cp_contended
              << "/" << f.cp_hold << "}";
  }
};

/// Keyed by (lock, stack id); stack 0 is the whole lock.
using Table2 = std::map<std::pair<trace::ObjectId, std::uint64_t>, Table2Fold>;

class Oracle {
 public:
  explicit Oracle(const trace::TraceView& view) {
    last_thread_ = trace::kNoThread;
    for (trace::ThreadId tid = 0; tid < view.thread_count(); ++tid) {
      const trace::EventsView& events = view.thread_events(tid);
      if (events.empty()) continue;
      pair_thread(events, tid);
      const std::uint64_t exit = events.ts_at(events.size() - 1);
      if (last_thread_ == trace::kNoThread || exit > last_exit_) {
        last_thread_ = tid;
        last_exit_ = exit;
      }
    }
    threads_ = view.thread_count();
    resolve_barrier_waits();
    resolve_cond_waits();
    for (auto& [lock, sections] : locks_) {
      std::sort(sections.begin(), sections.end(),
                [](const OracleSection& a, const OracleSection& b) {
                  if (a.acquired_ts != b.acquired_ts) {
                    return a.acquired_ts < b.acquired_ts;
                  }
                  if (a.tid != b.tid) return a.tid < b.tid;
                  return a.acquired_idx < b.acquired_idx;
                });
      for (std::size_t k = 1; k < sections.size(); ++k) {
        releasers_[analysis::EventRef{sections[k].tid, sections[k].acquired_idx}] =
            analysis::EventRef{sections[k - 1].tid, sections[k - 1].released_idx};
      }
    }
  }

  /// Every mutex with a section or a release, its sections in ownership
  /// order.
  const std::map<trace::ObjectId, std::vector<OracleSection>>& locks() const {
    return locks_;
  }

  /// The thread whose last event is latest (ties toward the lowest tid).
  trace::ThreadId last_thread() const { return last_thread_; }

  /// The release that let the acquisition at (tid, acquired_idx) in;
  /// invalid for the first section of a mutex and for an unpaired event.
  analysis::EventRef releaser(trace::ThreadId tid, std::uint32_t acquired_idx) const {
    const auto it = releasers_.find(analysis::EventRef{tid, acquired_idx});
    return it == releasers_.end() ? analysis::EventRef{} : it->second;
  }

  /// The resolution of the BarrierLeave or CondWaitEnd at (tid, idx);
  /// {invalid, not blocked} for one that closes no wait.
  analysis::Resolution wait_wakeup(trace::ThreadId tid, std::uint32_t idx) const {
    const auto it = wait_wakeups_.find(analysis::EventRef{tid, idx});
    return it == wait_wakeups_.end() ? analysis::Resolution{} : it->second;
  }

  /// Table 2 over every section, on-path figures measured against `path`.
  Table2 table2(const analysis::CriticalPath& path) const {
    Table2 out;
    for (const auto& [lock, sections] : locks_) {
      out[{lock, 0}];
      for (const OracleSection& s : sections) {
        const std::uint64_t on_path =
            overlap(path, s.tid, s.acquired_ts, s.released_ts);
        const auto add = [&](Table2Fold& f) {
          ++f.invocations;
          f.contended += s.contended ? 1 : 0;
          f.wait += s.acquired_ts - s.acquire_ts;
          f.hold += s.released_ts - s.acquired_ts;
          if (on_path == 0) return;
          ++f.cp_invocations;
          f.cp_contended += s.contended ? 1 : 0;
          f.cp_hold += on_path;
        };
        add(out[{lock, 0}]);
        if (s.stack != 0) add(out[{lock, s.stack}]);
      }
    }
    return out;
  }

  /// Summed lock wait and hold time per thread.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> thread_wait_hold() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out(threads_);
    for (const auto& [lock, sections] : locks_) {
      for (const OracleSection& s : sections) {
        out[s.tid].first += s.acquired_ts - s.acquire_ts;
        out[s.tid].second += s.released_ts - s.acquired_ts;
      }
    }
    return out;
  }

  /// Overlap of [begin, end) with `tid`'s path intervals, each one tried.
  static std::uint64_t overlap(const analysis::CriticalPath& path,
                               trace::ThreadId tid, std::uint64_t begin,
                               std::uint64_t end) {
    if (begin >= end || tid >= path.per_thread.size()) return 0;
    std::uint64_t total = 0;
    for (const analysis::PathInterval& iv : path.per_thread[tid]) {
      const std::uint64_t lo = std::max(iv.begin_ts, begin);
      const std::uint64_t hi = std::min(iv.end_ts, end);
      if (hi > lo) total += hi - lo;
    }
    return std::min(total, end - begin);
  }

 private:
  struct Open {
    std::uint32_t idx;
    std::uint64_t ts;
    std::uint64_t arg;
  };
  /// A barrier or condvar wait, from its opening to its closing event.
  struct Wait {
    trace::ThreadId tid;
    Open begin;
    std::uint32_t end_idx;
    std::uint64_t end_ts;
    std::uint32_t episode;  ///< barriers only
  };
  /// A signal or broadcast; (ts, tid, idx) orders "latest".
  struct Signal {
    std::uint64_t ts;
    trace::ThreadId tid;
    std::uint32_t idx;
    auto operator<=>(const Signal&) const = default;
  };

  void resolve_barrier_waits() {
    for (const auto& [barrier, waits] : barrier_waits_) {
      std::map<std::uint32_t, const Wait*> last;  // by episode
      for (const Wait& w : waits) {
        const Wait*& l = last[w.episode];
        if (l == nullptr || w.begin.ts > l->begin.ts ||
            (w.begin.ts == l->begin.ts &&
             (w.tid < l->tid || (w.tid == l->tid && w.end_idx < l->end_idx)))) {
          l = &w;
        }
      }
      for (const Wait& w : waits) {
        const Wait* l = last.at(w.episode);
        analysis::Resolution& r = wait_wakeups_[analysis::EventRef{w.tid, w.end_idx}];
        if (l == &w) continue;
        r.blocked = true;
        r.releaser = analysis::EventRef{l->tid, l->begin.idx};
      }
    }
  }

  void resolve_cond_waits() {
    for (const auto& [cond, waits] : cond_waits_) {
      const std::vector<Signal>& signals = signals_[cond];
      for (const Wait& w : waits) {
        analysis::Resolution& r = wait_wakeups_[analysis::EventRef{w.tid, w.end_idx}];
        if (w.end_ts == w.begin.ts) continue;
        std::optional<Signal> inside, before;
        for (const Signal& s : signals) {
          if (s.tid == w.tid || s.ts > w.end_ts) continue;
          if (!before || *before < s) before = s;
          if (s.ts > w.begin.ts && (!inside || *inside < s)) inside = s;
        }
        const std::optional<Signal>& by = inside ? inside : before;
        if (!by) continue;
        r.blocked = true;
        r.releaser = analysis::EventRef{by->tid, by->idx};
      }
    }
  }

  void pair_thread(const trace::EventsView& events, trace::ThreadId tid) {
    using trace::EventType;
    std::map<trace::ObjectId, Open> requests;
    std::map<trace::ObjectId, std::vector<std::pair<Open, Open>>> held;
    std::map<trace::ObjectId, Open> arrivals;
    std::map<trace::ObjectId, std::uint32_t> completed;  // waits per barrier
    std::optional<std::pair<trace::ObjectId, Open>> cond_wait;
    const auto close = [&](trace::ObjectId lock, const Open& acquire,
                           const Open& acquired, std::uint32_t idx,
                           std::uint64_t ts) {
      locks_[lock].push_back(OracleSection{
          tid, acquired.idx, idx, acquire.ts, acquired.ts, ts,
          acquire.arg != trace::kNoArg ? acquire.arg : 0,
          acquired.arg != trace::kNoArg && (acquired.arg & 1) != 0});
    };
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      const trace::ObjectId object = events.object_at(i);
      const Open here{i, events.ts_at(i), events.arg_at(i)};
      switch (events.type_at(i)) {
        case EventType::MutexAcquire:
          requests.try_emplace(object, here);  // a second request is ignored
          break;
        case EventType::MutexAcquired: {
          const auto it = requests.find(object);
          if (it == requests.end()) break;
          held[object].emplace_back(it->second, here);
          requests.erase(it);
          break;
        }
        case EventType::MutexReleased: {
          auto& open = held[object];
          if (open.empty()) {
            locks_[object];  // a stray release still names the mutex
            break;
          }
          close(object, open.back().first, open.back().second, i, here.ts);
          open.pop_back();
          break;
        }
        case EventType::BarrierArrive:
          arrivals.try_emplace(object, here);  // a second arrival is ignored
          break;
        case EventType::BarrierLeave: {
          const auto it = arrivals.find(object);
          if (it == arrivals.end()) break;
          const std::uint32_t ordinal = completed[object]++;
          const std::uint64_t recorded = it->second.arg;
          barrier_waits_[object].push_back(Wait{
              tid, it->second, i, here.ts,
              recorded <= (1u << 24) ? static_cast<std::uint32_t>(recorded)
                                     : ordinal});
          arrivals.erase(it);
          break;
        }
        case EventType::CondWaitBegin:
          if (!cond_wait) cond_wait.emplace(object, here);  // nested: ignored
          break;
        case EventType::CondWaitEnd:
          if (!cond_wait || cond_wait->first != object) break;
          cond_waits_[object].push_back(Wait{tid, cond_wait->second, i, here.ts, 0});
          cond_wait.reset();
          break;
        case EventType::CondSignal:
        case EventType::CondBroadcast:
          signals_[object].push_back(Signal{here.ts, tid, i});
          break;
        default:
          break;
      }
    }
    const auto last = static_cast<std::uint32_t>(events.size() - 1);
    for (const auto& [lock, open] : held) {
      for (const auto& [acquire, acquired] : open) {
        close(lock, acquire, acquired, last, events.ts_at(last));
      }
    }
  }

  std::map<trace::ObjectId, std::vector<OracleSection>> locks_;
  std::map<analysis::EventRef, analysis::EventRef> releasers_;
  std::map<trace::ObjectId, std::vector<Wait>> barrier_waits_;
  std::map<trace::ObjectId, std::vector<Wait>> cond_waits_;
  std::map<trace::ObjectId, std::vector<Signal>> signals_;
  std::map<analysis::EventRef, analysis::Resolution> wait_wakeups_;
  std::size_t threads_ = 0;
  trace::ThreadId last_thread_ = 0;
  std::uint64_t last_exit_ = 0;
};

/// The paper's event-by-event backward walk (§III.A, Fig. 2). `index`
/// resolves thread starts and joins; the oracle, every other wake-up.
inline analysis::CriticalPath reference_walk(const analysis::TraceIndex& index,
                                             const Oracle& oracle) {
  using analysis::EventRef;
  using analysis::PathInterval;
  const trace::TraceView& t = index.view();
  analysis::CriticalPath path;
  path.last_thread = oracle.last_thread();

  trace::ThreadId tid = path.last_thread;
  trace::EventsView events = t.thread_events(tid);
  auto idx = static_cast<std::uint32_t>(events.size() - 1);
  std::uint64_t cur_time = events.ts_at(idx);
  path.end_ts = cur_time;

  // Guards termination on malformed traces whose releaser relation has a
  // cycle (impossible for a consistent happens-before order).
  std::set<EventRef> jumped_from;

  for (;;) {
    const trace::Event e = events[idx];
    if (trace::is_wakeup(e.type)) {
      analysis::Resolution r;
      if (e.type == trace::EventType::MutexAcquired) {
        r.blocked = e.arg != trace::kNoArg && (e.arg & 1) != 0;
        if (r.blocked) r.releaser = oracle.releaser(tid, idx);
      } else if (e.type == trace::EventType::BarrierLeave ||
                 e.type == trace::EventType::CondWaitEnd) {
        r = oracle.wait_wakeup(tid, idx);
      } else {
        std::uint32_t row = 0;
        r = analysis::resolve_wakeup(index, tid, idx, row);
      }
      const EventRef here{tid, idx};
      if (r.blocked && r.releaser.valid() && !jumped_from.contains(here)) {
        jumped_from.insert(here);
        if (cur_time > e.ts) {
          path.intervals.push_back(PathInterval{tid, e.ts, cur_time});
        }
        path.jumps.push_back(analysis::PathJump{here, r.releaser, e.type, e.object});
        tid = r.releaser.tid;
        events = t.thread_events(tid);
        idx = r.releaser.index;
        cur_time = std::min(cur_time, events.ts_at(idx));
        // The releasing event (Released / Arrive / Signal / Create / Exit)
        // is never a wake-up, so the scan continues below it; a releaser at
        // index 0 can only be ThreadStart, a wake-up, so it is looked at.
        if (idx != 0) --idx;
        continue;
      }
    }
    if (idx == 0) {
      // The thread's first event, with no (further) releaser: the
      // beginning of the execution.
      if (cur_time > e.ts) {
        path.intervals.push_back(PathInterval{tid, e.ts, cur_time});
      }
      path.start_ts = e.ts;
      break;
    }
    --idx;
  }

  // Chronological order, plus the per-thread merged interval lists.
  std::reverse(path.intervals.begin(), path.intervals.end());
  std::reverse(path.jumps.begin(), path.jumps.end());
  path.per_thread.resize(t.thread_count());
  for (const auto& iv : path.intervals) path.per_thread[iv.tid].push_back(iv);
  for (auto& ivs : path.per_thread) {
    std::sort(ivs.begin(), ivs.end(),
              [](const PathInterval& a, const PathInterval& b) {
                return a.begin_ts < b.begin_ts;
              });
    std::vector<PathInterval> merged;
    for (const auto& iv : ivs) {
      if (!merged.empty() && iv.begin_ts <= merged.back().end_ts) {
        merged.back().end_ts = std::max(merged.back().end_ts, iv.end_ts);
      } else {
        merged.push_back(iv);
      }
    }
    ivs = std::move(merged);
  }
  return path;
}

inline void expect_same_path(const analysis::CriticalPath& want,
                             const analysis::CriticalPath& got,
                             const std::string& label) {
  EXPECT_EQ(want.start_ts, got.start_ts) << label;
  EXPECT_EQ(want.end_ts, got.end_ts) << label;
  EXPECT_EQ(want.last_thread, got.last_thread) << label;
  ASSERT_EQ(want.intervals.size(), got.intervals.size()) << label;
  for (std::size_t i = 0; i < want.intervals.size(); ++i) {
    const std::string where = label + " interval " + std::to_string(i);
    EXPECT_EQ(want.intervals[i].tid, got.intervals[i].tid) << where;
    EXPECT_EQ(want.intervals[i].begin_ts, got.intervals[i].begin_ts) << where;
    EXPECT_EQ(want.intervals[i].end_ts, got.intervals[i].end_ts) << where;
  }
  ASSERT_EQ(want.jumps.size(), got.jumps.size()) << label;
  for (std::size_t i = 0; i < want.jumps.size(); ++i) {
    const std::string where = label + " jump " + std::to_string(i);
    EXPECT_EQ(want.jumps[i].from, got.jumps[i].from) << where;
    EXPECT_EQ(want.jumps[i].to, got.jumps[i].to) << where;
    EXPECT_EQ(want.jumps[i].kind, got.jumps[i].kind) << where;
    EXPECT_EQ(want.jumps[i].object, got.jumps[i].object) << where;
  }
  ASSERT_EQ(want.per_thread.size(), got.per_thread.size()) << label;
  for (std::size_t t = 0; t < want.per_thread.size(); ++t) {
    const std::string where = label + " thread " + std::to_string(t);
    ASSERT_EQ(want.per_thread[t].size(), got.per_thread[t].size()) << where;
    for (std::size_t i = 0; i < want.per_thread[t].size(); ++i) {
      EXPECT_EQ(want.per_thread[t][i].begin_ts, got.per_thread[t][i].begin_ts)
          << where << " #" << i;
      EXPECT_EQ(want.per_thread[t][i].end_ts, got.per_thread[t][i].end_ts)
          << where << " #" << i;
    }
  }
}

/// Checks `result`'s per-lock, per-callsite and per-thread lock figures
/// against the oracle's fold over every section, on `result`'s own path.
inline void expect_table2(const analysis::AnalysisResult& result,
                          const Oracle& oracle, const std::string& label) {
  const Table2 want = oracle.table2(result.path);
  Table2 got;
  for (const analysis::LockStats& ls : result.locks) {
    got[{ls.id, 0}] = Table2Fold{ls.invocations,    ls.contended,
                                 ls.total_wait,     ls.total_hold,
                                 ls.cp_invocations, ls.cp_contended,
                                 ls.cp_hold_time};
  }
  for (const analysis::CallsiteStats& cs : result.callsites) {
    got[{cs.lock_id, cs.stack_id}] =
        Table2Fold{cs.invocations,    cs.contended,    cs.total_wait,
                   cs.total_hold,     cs.cp_invocations, cs.cp_contended,
                   cs.cp_hold_time};
  }
  ASSERT_EQ(got.size(), want.size()) << label;
  for (const auto& [key, fold] : want) {
    EXPECT_EQ(got[key], fold) << label << " lock " << key.first << " stack "
                              << key.second;
  }
  const auto per_thread = oracle.thread_wait_hold();
  ASSERT_EQ(result.threads.size(), per_thread.size()) << label;
  for (std::size_t tid = 0; tid < per_thread.size(); ++tid) {
    EXPECT_EQ(result.threads[tid].lock_wait_time, per_thread[tid].first)
        << label << " thread " << tid;
    EXPECT_EQ(result.threads[tid].lock_hold_time, per_thread[tid].second)
        << label << " thread " << tid;
  }
}

}  // namespace cla::test_support

#include "cla/analysis/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "cla/util/stats.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

using util::safe_ratio;

const LockStats* AnalysisResult::find_lock(const std::string& lock_name) const {
  for (const auto& ls : locks)
    if (ls.name == lock_name) return &ls;
  return nullptr;
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options) {
  return compute_stats(index, std::move(path), options, nullptr);
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options,
                             util::ThreadPool* pool) {
  const trace::TraceView& t = index.view();
  AnalysisResult result;
  result.completion_time = path.length();

  // --- thread stats & the TYPE 2 averaging denominator ---
  std::vector<bool> is_worker(t.thread_count(), false);
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const ThreadInfo& info = index.threads()[tid];
    ThreadStats ts;
    ts.tid = tid;
    ts.name = t.thread_display_name(tid);
    ts.duration = info.duration();
    ts.cp_time = path.thread_time(tid);
    ts.sync_ops = info.sync_ops;
    result.threads.push_back(std::move(ts));
    is_worker[tid] = !options.worker_threads_only || info.sync_ops > 0;
  }
  std::size_t workers = 0;
  for (bool w : is_worker) workers += w ? 1 : 0;
  if (workers == 0) {  // degenerate trace: average over everything
    std::fill(is_worker.begin(), is_worker.end(), true);
    workers = t.thread_count();
  }
  result.worker_threads = workers;

  const double cp_len = static_cast<double>(path.length());

  // --- TYPE 1: the sections that can overlap the path ---
  // Per thread, walk the merged path intervals and the thread's sections
  // (event order = acquisition-time order) side by side. A section
  // released after an interval's begin b was acquired after
  // b - max_hold(tid), so each interval's window starts there; a cursor
  // carried across intervals visits each section at most once. A thread
  // whose timestamps regress has no time order to search: all of its
  // sections are visited. The overlap arithmetic is CriticalPath::overlap,
  // and the sums are integers, so the visit order cannot change a figure.
  std::vector<trace::ObjectId> mutex_ids;
  std::vector<const MutexIndex*> mutex_list;
  mutex_ids.reserve(index.mutexes().size());
  mutex_list.reserve(index.mutexes().size());
  for (const auto& [id, mi] : index.mutexes()) {
    mutex_ids.push_back(id);
    mutex_list.push_back(&mi);
  }
  struct OnPath {
    std::uint64_t hold = 0;
    std::uint64_t invocations = 0;
    std::uint64_t contended = 0;

    void add(std::uint64_t on_path, bool was_contended) {
      hold += on_path;
      ++invocations;
      if (was_contended) ++contended;
    }
  };
  std::vector<OnPath> lock_on_path(mutex_list.size());
  std::vector<std::map<std::uint64_t, OnPath>> callsite_on_path(mutex_list.size());
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    if (tid >= path.per_thread.size() || path.per_thread[tid].empty()) continue;
    const std::vector<TraceIndex::Position>& secs = index.thread_sections(tid);
    const trace::EventsView& events = t.thread_events(tid);
    const auto visit = [&](const TraceIndex::Position& p) {
      const auto slot = static_cast<std::size_t>(
          std::lower_bound(mutex_ids.begin(), mutex_ids.end(), events.object_at(p.idx)) -
          mutex_ids.begin());
      const CsRecord& cs = mutex_list[slot]->sections[p.pos];
      const std::uint64_t on_path =
          path.overlap(tid, cs.acquired_ts, cs.released_ts);
      if (on_path == 0) return;
      lock_on_path[slot].add(on_path, cs.contended);
      if (cs.stack_id != 0) {
        callsite_on_path[slot][cs.stack_id].add(on_path, cs.contended);
      }
    };
    if (!index.threads()[tid].ts_ordered) {
      for (const TraceIndex::Position& p : secs) visit(p);
      continue;
    }
    const std::uint64_t reach = index.max_hold(tid);
    auto next = secs.begin();
    for (const PathInterval& iv : path.per_thread[tid]) {
      const std::uint64_t from = iv.begin_ts > reach ? iv.begin_ts - reach : 0;
      next = std::lower_bound(next, secs.end(), from,
                              [&](const TraceIndex::Position& p, std::uint64_t ts) {
                                return events.ts_at(p.idx) < ts;
                              });
      for (; next != secs.end() && events.ts_at(next->idx) < iv.end_ts; ++next) {
        visit(*next);
      }
    }
  }

  // --- per-lock stats, from the index's running TYPE 2 totals ---
  // One task per lock, each writing only its own pre-sized slot; tasks
  // read but never write shared state, so the result is
  // scheduling-independent.
  result.locks.resize(mutex_list.size());
  // Per-lock callsite groups in stack-id order (slot per lock so the
  // fan-out stays write-disjoint); merged after the barrier below.
  std::vector<std::vector<CallsiteStats>> callsites_per_lock(mutex_list.size());
  const auto compute_lock = [&](std::size_t k) {
    const trace::ObjectId id = mutex_ids[k];
    const MutexIndex& mi = *mutex_list[k];
    LockStats ls;
    ls.id = id;
    ls.name = t.object_display_name(id, "mutex");
    ls.invocations = mi.totals.invocations;
    ls.contended = mi.totals.contended;
    ls.total_wait = mi.totals.wait;
    ls.total_hold = mi.totals.hold;
    ls.cp_hold_time = lock_on_path[k].hold;
    ls.cp_invocations = lock_on_path[k].invocations;
    ls.cp_contended = lock_on_path[k].contended;

    // Callsite breakdown — only for sections that carried a stack id.
    for (const auto& [sid, totals] : mi.callsites) {
      CallsiteStats g;
      g.lock_id = id;
      g.lock_name = ls.name;
      g.stack_id = sid;
      g.invocations = totals.invocations;
      g.contended = totals.contended;
      g.total_wait = totals.wait;
      g.total_hold = totals.hold;
      if (const auto it = callsite_on_path[k].find(sid);
          it != callsite_on_path[k].end()) {
        g.cp_hold_time = it->second.hold;
        g.cp_invocations = it->second.invocations;
        g.cp_contended = it->second.contended;
      }
      callsites_per_lock[k].push_back(std::move(g));
    }

    double wait_fraction_sum = 0.0;
    double hold_fraction_sum = 0.0;
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      if (!is_worker[tid]) continue;
      const double dur = static_cast<double>(index.threads()[tid].duration());
      wait_fraction_sum +=
          safe_ratio(static_cast<double>(mi.wait_per_thread[tid]), dur);
      hold_fraction_sum +=
          safe_ratio(static_cast<double>(mi.hold_per_thread[tid]), dur);
    }
    const auto worker_count = static_cast<double>(workers);
    ls.avg_wait_fraction = wait_fraction_sum / worker_count;
    ls.avg_hold_fraction = hold_fraction_sum / worker_count;
    ls.avg_invocations = static_cast<double>(ls.invocations) / worker_count;
    ls.avg_contention_prob =
        safe_ratio(static_cast<double>(ls.contended),
                   static_cast<double>(ls.invocations));

    ls.cp_time_fraction = safe_ratio(static_cast<double>(ls.cp_hold_time), cp_len);
    ls.cp_contention_prob =
        safe_ratio(static_cast<double>(ls.cp_contended),
                   static_cast<double>(ls.cp_invocations));
    ls.invocation_increase =
        safe_ratio(static_cast<double>(ls.cp_invocations), ls.avg_invocations);
    ls.hold_increase = safe_ratio(ls.cp_time_fraction, ls.avg_hold_fraction);
    result.locks[k] = std::move(ls);
  };
  if (pool != nullptr) {
    pool->parallel_for(mutex_list.size(), compute_lock);
  } else {
    for (std::size_t k = 0; k < mutex_list.size(); ++k) compute_lock(k);
  }
  for (const MutexIndex* mi : mutex_list) {
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      result.threads[tid].lock_wait_time += mi->wait_per_thread[tid];
      result.threads[tid].lock_hold_time += mi->hold_per_thread[tid];
    }
  }
  std::sort(result.locks.begin(), result.locks.end(),
            [](const LockStats& a, const LockStats& b) {
              if (a.cp_hold_time != b.cp_hold_time)
                return a.cp_hold_time > b.cp_hold_time;
              if (a.total_wait != b.total_wait) return a.total_wait > b.total_wait;
              return a.name < b.name;
            });

  // Merge the per-lock callsite groups; iteration order (lock slot, then
  // stack id) is fixed, and the final sort is a strict ranking, so the
  // result is pool-independent. Frames resolve against the trace's symbol
  // table here, falling back to raw hex PCs (crash spills carry none).
  const auto& stack_table = t.call_stacks();
  const auto& symbol_table = t.frame_symbols();
  for (auto& groups : callsites_per_lock)
    for (CallsiteStats& g : groups) {
      g.cp_time_fraction =
          safe_ratio(static_cast<double>(g.cp_hold_time), cp_len);
      if (auto it = stack_table.find(g.stack_id); it != stack_table.end()) {
        g.frames.reserve(it->second.size());
        for (std::uint64_t pc : it->second) {
          if (auto sym = symbol_table.find(pc); sym != symbol_table.end()) {
            g.frames.push_back(sym->second);
          } else {
            char buf[2 + 16 + 1];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(pc));
            g.frames.emplace_back(buf);
          }
        }
      }
      result.callsites.push_back(std::move(g));
    }
  std::sort(result.callsites.begin(), result.callsites.end(),
            [](const CallsiteStats& a, const CallsiteStats& b) {
              if (a.cp_hold_time != b.cp_hold_time)
                return a.cp_hold_time > b.cp_hold_time;
              if (a.total_wait != b.total_wait) return a.total_wait > b.total_wait;
              if (a.lock_name != b.lock_name) return a.lock_name < b.lock_name;
              return a.stack_id < b.stack_id;
            });

  // --- barrier stats (same fan-out shape as the locks) ---
  std::vector<const BarrierIndex*> barrier_list;
  std::vector<trace::ObjectId> barrier_ids;
  barrier_list.reserve(index.barriers().size());
  barrier_ids.reserve(index.barriers().size());
  for (const auto& [id, bi] : index.barriers()) {
    barrier_ids.push_back(id);
    barrier_list.push_back(&bi);
  }
  result.barriers.resize(barrier_list.size());
  const auto compute_barrier = [&](std::size_t k) {
    const BarrierIndex& bi = *barrier_list[k];
    BarrierStats bs;
    bs.id = barrier_ids[k];
    bs.name = t.object_display_name(bs.id, "barrier");
    bs.episodes = bi.episodes.size();
    bs.waits = bi.waits.size();
    std::vector<std::uint64_t> wait_per_thread(t.thread_count(), 0);
    for (const auto& w : bi.waits) {
      bs.total_wait_time += w.leave_ts - w.arrive_ts;
      wait_per_thread[w.tid] += w.leave_ts - w.arrive_ts;
    }
    double fraction_sum = 0.0;
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      if (!is_worker[tid]) continue;
      fraction_sum += safe_ratio(static_cast<double>(wait_per_thread[tid]),
                                 static_cast<double>(index.threads()[tid].duration()));
    }
    bs.avg_wait_fraction = fraction_sum / static_cast<double>(workers);
    result.barriers[k] = std::move(bs);
  };
  if (pool != nullptr) {
    pool->parallel_for(barrier_list.size(), compute_barrier);
  } else {
    for (std::size_t k = 0; k < barrier_list.size(); ++k) compute_barrier(k);
  }

  // --- condvar stats ---
  for (const auto& [id, ci] : index.conds()) {
    CondStats cs;
    cs.id = id;
    cs.name = t.object_display_name(id, "cond");
    cs.waits = ci.waits.size();
    cs.signals = ci.signals.size();
    for (const auto& w : ci.waits) cs.total_wait_time += w.end_ts - w.begin_ts;
    result.conds.push_back(std::move(cs));
  }

  // --- attribute path jumps to barriers/conds ---
  for (const PathJump& jump : path.jumps) {
    if (jump.kind == trace::EventType::BarrierLeave) {
      for (auto& bs : result.barriers)
        if (bs.id == jump.object) ++bs.cp_jumps;
    } else if (jump.kind == trace::EventType::CondWaitEnd) {
      for (auto& cs : result.conds)
        if (cs.id == jump.object) ++cs.cp_jumps;
    }
  }

  result.path = std::move(path);
  return result;
}

}  // namespace cla::analysis

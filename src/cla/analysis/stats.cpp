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

void LockPathTotals::add(std::uint64_t on_path, bool contended,
                         std::uint64_t stack_id) {
  if (on_path == 0) return;
  const auto count = [&](PathTotals& p) {
    p.hold += on_path;
    ++p.invocations;
    if (contended) ++p.contended;
  };
  count(lock);
  if (stack_id != 0) count(callsites[stack_id]);
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options,
                             util::ThreadPool* pool) {
  const trace::TraceView& t = index.view();

  // --- TYPE 1: the sections that can overlap the path ---
  // Per thread, walk the merged path intervals and the thread's section
  // table (event order = acquisition-time order) side by side. A section
  // released after an interval's begin b was acquired after
  // b - max_hold(tid), so each interval's window starts there; a cursor
  // carried across intervals visits each section at most once, and an
  // OverlapCursor measures it. A visit reads the section's table row,
  // plus its MutexAcquire's arg if it carries a call stack. A thread
  // whose timestamps regress has no time order to search: all of its
  // sections are visited and measured with CriticalPath::overlap. The sums
  // are integers, so the visit order cannot change a figure.
  std::vector<LockPathTotals> by_slot(index.slot_count());
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    if (tid >= path.per_thread.size() || path.per_thread[tid].empty()) continue;
    const SectionTable& secs = index.thread_sections(tid);
    const trace::EventsView& events = t.thread_events(tid);
    const auto visit = [&](const SectionRow& row, std::uint64_t on_path) {
      if (on_path == 0) return;
      by_slot[row.slot].add(on_path, row.contended(), row.stack_id(events));
    };
    if (!index.threads()[tid].ts_ordered) {
      for (const SectionRow& row : secs) {
        visit(row, path.overlap(tid, row.acquired_ts, row.released_ts));
      }
      continue;
    }
    const std::uint64_t reach = index.max_hold(tid);
    OverlapCursor cursor(path.per_thread[tid]);
    auto next = secs.begin();
    for (const PathInterval& iv : path.per_thread[tid]) {
      const std::uint64_t from = iv.begin_ts > reach ? iv.begin_ts - reach : 0;
      next = std::lower_bound(next, secs.end(), from,
                              [](const SectionRow& row, std::uint64_t ts) {
                                return row.acquired_ts < ts;
                              });
      for (; next != secs.end() && next->acquired_ts < iv.end_ts; ++next) {
        visit(*next, cursor.overlap(next->acquired_ts, next->released_ts));
      }
    }
  }
  std::vector<LockPathTotals> on_path;
  on_path.reserve(by_slot.size());
  for (const auto& [id, mi] : index.mutexes()) {
    on_path.push_back(std::move(by_slot[mi.slot]));
  }

  // --- barrier and condvar totals: every wait record ---
  std::map<trace::ObjectId, BarrierTotals> barriers;
  for (const auto& [id, bi] : index.barriers()) {
    BarrierTotals& bt = barriers[id];
    bt.episodes = bi.episodes.size();
    bt.wait_per_thread.assign(t.thread_count(), 0);
    for (const auto& w : bi.waits) bt.add(w);
  }
  std::map<trace::ObjectId, CondTotals> conds;
  for (const auto& [id, ci] : index.conds()) {
    CondTotals& ct = conds[id];
    ct.signals = ci.signals.size();
    for (const auto& w : ci.waits) ct.add(w);
  }

  return assemble_stats(
      t, StatsInputs{index.threads(), index.mutexes(), on_path, barriers, conds},
      std::move(path), options, pool);
}

AnalysisResult assemble_stats(const trace::TraceView& t,
                              const StatsInputs& inputs, CriticalPath path,
                              const StatsOptions& options,
                              util::ThreadPool* pool) {
  AnalysisResult result;
  result.completion_time = path.length();

  // --- thread stats & the TYPE 2 averaging denominator ---
  std::vector<bool> is_worker(t.thread_count(), false);
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const ThreadInfo& info = inputs.threads[tid];
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
  const auto worker_count = static_cast<double>(workers);

  // Mean over the worker threads of per_thread[tid] / duration(tid).
  const auto avg_fraction = [&](const std::vector<std::uint64_t>& per_thread) {
    double sum = 0.0;
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      if (!is_worker[tid]) continue;
      sum += safe_ratio(static_cast<double>(per_thread[tid]),
                        static_cast<double>(inputs.threads[tid].duration()));
    }
    return sum / worker_count;
  };

  const double cp_len = static_cast<double>(path.length());

  // --- per-lock stats ---
  // One task per lock, each writing only its own pre-sized slot; tasks
  // read but never write shared state, so the result is
  // scheduling-independent.
  std::vector<const std::pair<const trace::ObjectId, MutexIndex>*> mutexes;
  mutexes.reserve(inputs.mutexes.size());
  for (const auto& entry : inputs.mutexes) mutexes.push_back(&entry);
  result.locks.resize(mutexes.size());
  // Per-lock callsite groups in stack-id order (slot per lock so the
  // fan-out stays write-disjoint); merged after the barrier below.
  std::vector<std::vector<CallsiteStats>> callsites_per_lock(mutexes.size());
  const auto compute_lock = [&](std::size_t k) {
    const auto& [id, mi] = *mutexes[k];
    const LockPathTotals& on_path = inputs.on_path[k];
    LockStats ls;
    ls.id = id;
    ls.name = t.object_display_name(id, "mutex");
    ls.invocations = mi.totals.invocations;
    ls.contended = mi.totals.contended;
    ls.total_wait = mi.totals.wait;
    ls.total_hold = mi.totals.hold;
    ls.cp_hold_time = on_path.lock.hold;
    ls.cp_invocations = on_path.lock.invocations;
    ls.cp_contended = on_path.lock.contended;

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
      if (const auto it = on_path.callsites.find(sid);
          it != on_path.callsites.end()) {
        g.cp_hold_time = it->second.hold;
        g.cp_invocations = it->second.invocations;
        g.cp_contended = it->second.contended;
      }
      callsites_per_lock[k].push_back(std::move(g));
    }

    ls.avg_wait_fraction = avg_fraction(mi.wait_per_thread);
    ls.avg_hold_fraction = avg_fraction(mi.hold_per_thread);
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
  util::for_each_index(pool, mutexes.size(), compute_lock);
  for (const auto& [id, mi] : inputs.mutexes) {
    for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
      result.threads[tid].lock_wait_time += mi.wait_per_thread[tid];
      result.threads[tid].lock_hold_time += mi.hold_per_thread[tid];
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

  // --- barrier and condvar stats ---
  for (const auto& [id, bt] : inputs.barriers) {
    BarrierStats bs;
    bs.id = id;
    bs.name = t.object_display_name(id, "barrier");
    bs.episodes = bt.episodes;
    bs.waits = bt.waits;
    bs.total_wait_time = bt.wait;
    bs.avg_wait_fraction = avg_fraction(bt.wait_per_thread);
    result.barriers.push_back(std::move(bs));
  }
  for (const auto& [id, ct] : inputs.conds) {
    CondStats cs;
    cs.id = id;
    cs.name = t.object_display_name(id, "cond");
    cs.waits = ct.waits;
    cs.signals = ct.signals;
    cs.total_wait_time = ct.wait;
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

#include "cla/analysis/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "cla/util/stats.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

using util::safe_ratio;

namespace {

/// Ranks `items` by cp_hold_time, then total_wait, both descending, then
/// `tie_before` (which must order any two items strictly). It sorts
/// (key, position) pairs and then moves each item once, rather than
/// swapping whole items inside the sort.
template <typename T, typename TieBefore>
void rank(std::vector<T>& items, TieBefore tie_before) {
  struct Key {
    std::uint64_t hold = 0;
    std::uint64_t wait = 0;
    std::uint32_t pos = 0;
  };
  std::vector<Key> keys;
  keys.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    keys.push_back(Key{items[i].cp_hold_time, items[i].total_wait,
                       static_cast<std::uint32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    if (a.hold != b.hold) return a.hold > b.hold;
    if (a.wait != b.wait) return a.wait > b.wait;
    return tie_before(items[a.pos], items[b.pos]);
  });
  std::vector<T> ranked;
  ranked.reserve(items.size());
  for (const Key& k : keys) ranked.push_back(std::move(items[k.pos]));
  items = std::move(ranked);
}

}  // namespace

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

void LockPathTotals::remove(std::uint64_t on_path, bool contended,
                            std::uint64_t stack_id) {
  if (on_path == 0) return;
  const auto uncount = [&](PathTotals& p) {
    p.hold -= on_path;
    --p.invocations;
    if (contended) --p.contended;
  };
  uncount(lock);
  if (stack_id == 0) return;
  const auto it = callsites.find(stack_id);
  uncount(it->second);
  if (it->second.invocations == 0) callsites.erase(it);
}

void PathSums::update(const TraceIndex& index, const CriticalPath& path,
                      const std::vector<std::uint64_t>& changed_from,
                      std::uint64_t boundary) {
  const trace::TraceView& t = index.view();
  by_slot_.resize(index.slot_count());
  visits_.resize(t.thread_count());
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    std::vector<Visit>& visits = visits_[tid];
    const bool on_path =
        tid < path.per_thread.size() && !path.per_thread[tid].empty();
    if (!on_path && visits.empty()) continue;
    const SectionTable& secs = index.thread_sections(tid);
    const bool ordered = index.threads()[tid].ts_ordered;
    const std::uint64_t reach = index.max_hold(tid);

    // A section acquired before `changed - reach` was released before
    // `changed`, where neither its row nor the path around it can have
    // changed: its visit stands. The rest are subtracted and revisited.
    std::size_t cut = 0;
    if (ordered) {
      const std::uint64_t changed = std::min(
          boundary, tid < changed_from.size() ? changed_from[tid] : 0);
      if (changed > reach) {
        cut = static_cast<std::size_t>(
            std::lower_bound(secs.begin(), secs.end(), changed - reach,
                             [](const SectionRow& row, std::uint64_t ts) {
                               return row.acquired_ts < ts;
                             }) -
            secs.begin());
      }
    }
    const trace::EventsView& events = t.thread_events(tid);
    const auto stale = std::partition_point(
        visits.begin(), visits.end(),
        [&](const Visit& v) { return v.row < cut; });
    for (auto it = stale; it != visits.end(); ++it) {
      const SectionRow& row = secs[it->row];
      by_slot_[row.slot].remove(it->on_path, row.contended(),
                                row.stack_id(events));
    }
    visits.erase(stale, visits.end());
    if (!on_path || cut == secs.size()) continue;

    const auto visit = [&](std::size_t r, std::uint64_t overlap) {
      if (overlap == 0) return;
      const SectionRow& row = secs[r];
      by_slot_[row.slot].add(overlap, row.contended(), row.stack_id(events));
      visits.push_back(Visit{overlap, static_cast<std::uint32_t>(r)});
    };
    if (!ordered) {
      for (std::size_t r = 0; r < secs.size(); ++r) {
        visit(r, path.overlap(tid, secs[r].acquired_ts, secs[r].released_ts));
      }
      continue;
    }
    // Walk the path intervals and the section table side by side. A
    // section released after an interval's begin b was acquired after
    // b - reach, so each interval's window starts there; a cursor carried
    // across intervals visits each section at most once, and an
    // OverlapCursor measures it. Intervals that end by the first
    // revisited section's acquisition overlap none of them.
    const std::vector<PathInterval>& ivs = path.per_thread[tid];
    const auto first_iv = std::partition_point(
        ivs.begin(), ivs.end(), [&](const PathInterval& iv) {
          return iv.end_ts <= secs[cut].acquired_ts;
        });
    const PathInterval* ivs_end = ivs.data() + ivs.size();
    OverlapCursor cursor(ivs.data() + (first_iv - ivs.begin()), ivs_end);
    auto next = secs.begin() + static_cast<std::ptrdiff_t>(cut);
    for (auto iv = first_iv; iv != ivs.end(); ++iv) {
      const std::uint64_t from = iv->begin_ts > reach ? iv->begin_ts - reach : 0;
      next = std::lower_bound(next, secs.end(), from,
                              [](const SectionRow& row, std::uint64_t ts) {
                                return row.acquired_ts < ts;
                              });
      for (; next != secs.end() && next->acquired_ts < iv->end_ts; ++next) {
        visit(static_cast<std::size_t>(next - secs.begin()),
              cursor.overlap(next->acquired_ts, next->released_ts));
      }
    }
  }
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options,
                             util::ThreadPool* pool) {
  PathSums sums;
  sums.update(index, path, {}, 0);
  return compute_stats(index, std::move(path), sums, options, pool);
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const PathSums& sums, const StatsOptions& options,
                             util::ThreadPool* pool) {
  const trace::TraceView& t = index.view();
  std::vector<const LockPathTotals*> on_path;
  on_path.reserve(index.mutexes().size());
  for (const auto& [id, mi] : index.mutexes()) {
    on_path.push_back(&sums.by_slot()[mi.slot]);
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
    const LockPathTotals& on_path = *inputs.on_path[k];
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
  rank(result.locks, [](const LockStats& a, const LockStats& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.id < b.id;
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
  rank(result.callsites, [](const CallsiteStats& a, const CallsiteStats& b) {
    if (a.lock_name != b.lock_name) return a.lock_name < b.lock_name;
    if (a.stack_id != b.stack_id) return a.stack_id < b.stack_id;
    return a.lock_id < b.lock_id;
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

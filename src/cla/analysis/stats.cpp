#include "cla/analysis/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <tuple>

#include "cla/util/stats.hpp"

namespace cla::analysis {

using util::safe_ratio;

namespace {

/// A ranking entry of a lock or a callsite: its CP hold time and total
/// wait, both descending, then its lock's name rank, then two ids (a lock:
/// its id; a callsite: its stack id, then its lock's id). `pos` is the
/// position of what it ranks.
struct RankKey {
  std::uint64_t hold = 0;
  std::uint64_t wait = 0;
  std::uint32_t name_rank = 0;
  std::uint32_t pos = 0;
  std::uint64_t first_id = 0;
  std::uint64_t second_id = 0;
};

bool ranks_before(const RankKey& a, const RankKey& b) noexcept {
  return std::tie(b.hold, b.wait, a.name_rank, a.first_id, a.second_id) <
         std::tie(a.hold, a.wait, b.name_rank, b.first_id, b.second_id);
}

/// Ranks `kept`, keys in ranking order already, together with `moved`:
/// sorts `moved` and merges the two. O(kept + moved log moved).
std::vector<RankKey> rank_keys(const std::vector<RankKey>& kept,
                               std::vector<RankKey>& moved) {
  std::sort(moved.begin(), moved.end(), ranks_before);
  std::vector<RankKey> ranked(kept.size() + moved.size());
  std::merge(kept.begin(), kept.end(), moved.begin(), moved.end(),
             ranked.begin(), ranks_before);
  return ranked;
}

}  // namespace

void LockTable::take_back(std::vector<LockStats>&& locks) {
  if (!lent_ || locks.size() != slot_at_.size()) return;
  rows_ = std::move(locks);
  lent_ = false;
}

bool LockTable::name_rows(const trace::TraceView& view,
                          std::span<const MutexIndex* const> mutexes) {
  if (lent_) {
    rows_.clear();
    slot_at_.clear();
    lent_ = false;
  }
  bool named = stale_names_;
  if (stale_names_) {
    for (LockStats& row : rows_) row.name = view.object_display_name(row.id, "mutex");
    stale_names_ = false;
  }
  rows_.reserve(mutexes.size());
  slot_at_.reserve(mutexes.size());
  for (std::size_t slot = rows_.size(); slot < mutexes.size(); ++slot) {
    LockStats& row = rows_.emplace_back();
    row.id = mutexes[slot]->id;
    row.name = view.object_display_name(row.id, "mutex");
    slot_at_.push_back(static_cast<std::uint32_t>(slot));
    named = true;
  }
  if (!named) return false;
  std::vector<std::uint32_t> by_name(rows_.size());
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return rows_[a].name < rows_[b].name;
            });
  name_rank_.resize(rows_.size());
  std::uint32_t rank = 0;
  for (std::size_t k = 0; k < by_name.size(); ++k) {
    if (k > 0 && rows_[by_name[k]].name != rows_[by_name[k - 1]].name) ++rank;
    name_rank_[slot_at_[by_name[k]]] = rank;
  }
  return true;
}

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
                             const StatsOptions& options) {
  PathSums sums;
  sums.update(index, path, {}, 0);
  LockTable table;
  return compute_stats(index, std::move(path), sums, table, options);
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const PathSums& sums, LockTable& table,
                             const StatsOptions& options) {
  const trace::TraceView& t = index.view();

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

  return assemble_stats(t,
                        StatsInputs{index.threads(), index.slots(),
                                    sums.by_slot(), index.slot_times(),
                                    barriers, conds},
                        std::move(path), options, table);
}

AnalysisResult assemble_stats(const trace::TraceView& t,
                              const StatsInputs& inputs, CriticalPath path,
                              const StatsOptions& options, LockTable& table) {
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
  const double cp_len = static_cast<double>(path.length());

  // --- per-thread lock times, one pass per thread over all locks: each
  // lock's sum of per_thread[tid] / duration(tid) over the worker threads
  // still runs in tid order. A zero duration would add safe_ratio's 0.0,
  // which changes no sum. The times go to doubles first, so that the
  // divisions vectorize ---
  const std::size_t slots = inputs.mutexes.size();
  std::vector<double> wait_sum(slots, 0.0);
  std::vector<double> hold_sum(slots, 0.0);
  std::vector<double> wait(slots);
  std::vector<double> hold(slots);
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const SlotTimes& times = inputs.slot_times[tid];
    ThreadStats& ts = result.threads[tid];
    for (std::size_t slot = 0; slot < slots; ++slot) {
      ts.lock_wait_time += times.wait[slot];
      ts.lock_hold_time += times.hold[slot];
      wait[slot] = static_cast<double>(times.wait[slot]);
      hold[slot] = static_cast<double>(times.hold[slot]);
    }
    const auto duration = static_cast<double>(inputs.threads[tid].duration());
    if (!is_worker[tid] || duration == 0.0) continue;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      wait_sum[slot] += wait[slot] / duration;
      hold_sum[slot] += hold[slot] / duration;
    }
  }

  // --- per-lock stats, in place in the table's rows, and the callsites
  // in (row, stack id) order. The rows are in the last ranking's order, so
  // the keys of the locks whose hold and wait did not change are in order
  // still, unless names were looked up and ranked again ---
  const bool renamed = table.name_rows(t, inputs.mutexes);
  std::vector<RankKey> kept_keys;
  std::vector<RankKey> moved_keys;
  std::vector<RankKey> callsite_keys;
  std::vector<CallsiteStats> callsites;
  for (std::size_t pos = 0; pos < slots; ++pos) {
    const std::uint32_t slot = table.slot_at_[pos];
    const MutexIndex& mi = *inputs.mutexes[slot];
    const LockPathTotals& on_path = inputs.on_path[slot];
    const std::uint32_t name_rank = table.name_rank_[slot];
    LockStats& ls = table.rows_[pos];
    const RankKey key{on_path.lock.hold, mi.totals.wait, name_rank,
                      static_cast<std::uint32_t>(pos), mi.id, 0};
    const bool moved = renamed || ls.cp_hold_time != key.hold ||
                       ls.total_wait != key.wait;
    (moved ? moved_keys : kept_keys).push_back(key);
    ls.invocations = mi.totals.invocations;
    ls.contended = mi.totals.contended;
    ls.total_wait = mi.totals.wait;
    ls.total_hold = mi.totals.hold;
    ls.cp_hold_time = on_path.lock.hold;
    ls.cp_invocations = on_path.lock.invocations;
    ls.cp_contended = on_path.lock.contended;
    ls.avg_wait_fraction = wait_sum[slot] / worker_count;
    ls.avg_hold_fraction = hold_sum[slot] / worker_count;
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

    // Callsite breakdown — only for sections that carried a stack id.
    for (const auto& [sid, totals] : mi.callsites) {
      CallsiteStats g;
      g.lock_id = mi.id;
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
      g.cp_time_fraction = safe_ratio(static_cast<double>(g.cp_hold_time), cp_len);
      callsite_keys.push_back(
          RankKey{g.cp_hold_time, g.total_wait, name_rank,
                  static_cast<std::uint32_t>(callsites.size()), sid, mi.id});
      callsites.push_back(std::move(g));
    }
  }

  // --- rankings: the rows whose rank changed move, following the cycles
  // of the permutation; the result takes the rows, and the table takes
  // them back with take_back() ---
  const std::vector<RankKey> lock_keys = rank_keys(kept_keys, moved_keys);
  std::vector<LockStats>& rows = table.rows_;
  std::vector<std::uint32_t>& slot_at = table.slot_at_;
  std::vector<std::uint32_t> from(slots);  // position k takes row from[k]
  for (std::size_t k = 0; k < slots; ++k) from[k] = lock_keys[k].pos;
  for (std::size_t k = 0; k < slots; ++k) {
    if (from[k] == k) continue;
    LockStats row = std::move(rows[k]);
    const std::uint32_t slot = slot_at[k];
    std::size_t j = k;
    for (std::size_t next = from[j]; next != k; j = next, next = from[j]) {
      rows[j] = std::move(rows[next]);
      slot_at[j] = slot_at[next];
      from[j] = static_cast<std::uint32_t>(j);
    }
    rows[j] = std::move(row);
    slot_at[j] = slot;
    from[j] = static_cast<std::uint32_t>(j);
  }
  result.locks = std::move(rows);
  table.lent_ = true;

  // Frames resolve against the trace's symbol table, falling back to raw
  // hex PCs (crash spills carry none).
  callsite_keys = rank_keys({}, callsite_keys);
  const auto& stack_table = t.call_stacks();
  const auto& symbol_table = t.frame_symbols();
  result.callsites.reserve(callsites.size());
  for (const RankKey& k : callsite_keys) {
    CallsiteStats& g = callsites[k.pos];
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

  // --- barrier and condvar stats ---
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

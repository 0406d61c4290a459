#include "cla/analysis/report.hpp"

#include <set>
#include <sstream>

#include "cla/util/stats.hpp"
#include "cla/util/diagnostics.hpp"

namespace cla::analysis {

namespace {

using util::fixed;
using util::percent_string;
using util::Table;

std::size_t lock_limit(const AnalysisResult& result, const ReportOptions& options) {
  return options.top_locks == 0
             ? result.locks.size()
             : std::min(options.top_locks, result.locks.size());
}

/// Display label of a callsite: innermost frame, or "stack#<id>" when the
/// trace carried the id but no resolvable stack (truncated table).
std::string callsite_label(const CallsiteStats& cs) {
  if (!cs.frames.empty()) return cs.frames.front();
  return "stack#" + std::to_string(cs.stack_id);
}

}  // namespace

Table type1_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "CP Time %", "Invo. # on CP", "Cont. Prob. on CP %"});
  for (std::size_t i = 0; i < lock_limit(result, options); ++i) {
    const LockStats& ls = result.locks[i];
    table.add_row({ls.name, percent_string(ls.cp_time_fraction),
                   std::to_string(ls.cp_invocations),
                   percent_string(ls.cp_contention_prob)});
  }
  return table;
}

Table type2_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "Wait Time %", "Avg. Invo. #", "Avg. Cont. Prob %",
               "Avg. Hold Time %"});
  for (std::size_t i = 0; i < lock_limit(result, options); ++i) {
    const LockStats& ls = result.locks[i];
    table.add_row({ls.name, percent_string(ls.avg_wait_fraction),
                   fixed(ls.avg_invocations, 1),
                   percent_string(ls.avg_contention_prob),
                   percent_string(ls.avg_hold_fraction)});
  }
  return table;
}

Table comparison_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "CP Time %", "Wait Time %"});
  for (std::size_t i = 0; i < lock_limit(result, options); ++i) {
    const LockStats& ls = result.locks[i];
    table.add_row({ls.name, percent_string(ls.cp_time_fraction),
                   percent_string(ls.avg_wait_fraction)});
  }
  return table;
}

Table contention_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "Invo. # on CP", "Cont. Prob. on CP %", "Avg. Invo. #",
               "Avg. Cont. Prob %", "Incr. Times of Invo. #"});
  for (std::size_t i = 0; i < lock_limit(result, options); ++i) {
    const LockStats& ls = result.locks[i];
    table.add_row({ls.name, std::to_string(ls.cp_invocations),
                   percent_string(ls.cp_contention_prob),
                   fixed(ls.avg_invocations, 1),
                   percent_string(ls.avg_contention_prob),
                   fixed(ls.invocation_increase, 2)});
  }
  return table;
}

Table size_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "CP Time %", "Avg. Hold Time %",
               "Incr. Times of Critical Section Size"});
  for (std::size_t i = 0; i < lock_limit(result, options); ++i) {
    const LockStats& ls = result.locks[i];
    table.add_row({ls.name, percent_string(ls.cp_time_fraction),
                   percent_string(ls.avg_hold_fraction),
                   fixed(ls.hold_increase, 2)});
  }
  return table;
}

Table callsite_table(const AnalysisResult& result, const ReportOptions& options) {
  Table table({"Lock", "Callsite", "CP Time %", "Invo. # on CP",
               "Cont. Prob. on CP %", "Invo. #"});
  // top_locks bounds the callsite rows too: the table is already ranked
  // by CP hold time, so the cap keeps the hottest rows.
  const std::size_t limit = options.top_locks == 0
                                ? result.callsites.size()
                                : std::min(options.top_locks, result.callsites.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const CallsiteStats& cs = result.callsites[i];
    const double prob =
        util::safe_ratio(static_cast<double>(cs.cp_contended),
                         static_cast<double>(cs.cp_invocations));
    table.add_row({cs.lock_name, callsite_label(cs),
                   percent_string(cs.cp_time_fraction),
                   std::to_string(cs.cp_invocations), percent_string(prob),
                   std::to_string(cs.invocations)});
  }
  return table;
}

std::string render_report(const AnalysisResult& result, const ReportOptions& options) {
  std::ostringstream out;
  out << "=== Critical Lock Analysis ===\n";
  out << "completion time (critical path length): " << result.completion_time
      << " ns\n";
  out << "critical path: " << result.path.intervals.size() << " intervals, "
      << result.path.jumps.size() << " jumps, last thread "
      << result.path.last_thread << "\n";
  out << "worker threads (TYPE 2 denominator): " << result.worker_threads
      << "\n\n";

  std::size_t critical = 0;
  for (const auto& ls : result.locks) critical += ls.is_critical() ? 1 : 0;
  out << "locks: " << result.locks.size() << " total, " << critical
      << " critical (on the critical path)\n\n";

  out << "--- TYPE 1: critical-lock statistics (this paper) ---\n"
      << type1_table(result, options).to_text() << '\n';
  out << "--- TYPE 2: per-lock statistics (previous approaches) ---\n"
      << type2_table(result, options).to_text() << '\n';

  if (!result.callsites.empty()) {
    out << "--- callsites: CP time per (lock, acquisition site) ---\n"
        << callsite_table(result, options).to_text();
    out << "call stacks (innermost first):\n";
    std::set<std::uint64_t> listed;
    for (const CallsiteStats& cs : result.callsites) {
      if (!listed.insert(cs.stack_id).second) continue;  // shared across locks
      out << "  #" << cs.stack_id << ":";
      if (cs.frames.empty()) {
        out << " <unresolved>\n";
        continue;
      }
      for (std::size_t f = 0; f < cs.frames.size(); ++f)
        out << (f == 0 ? " " : "     ") << cs.frames[f] << '\n';
    }
    out << '\n';
  }

  if (!result.barriers.empty()) {
    Table barriers({"Barrier", "Episodes", "Waits", "Avg. Wait Time %",
                    "CP crossings"});
    for (const auto& bs : result.barriers) {
      barriers.add_row({bs.name, std::to_string(bs.episodes),
                        std::to_string(bs.waits),
                        percent_string(bs.avg_wait_fraction),
                        std::to_string(bs.cp_jumps)});
    }
    out << "--- barriers ---\n" << barriers.to_text() << '\n';
  }
  if (!result.conds.empty()) {
    Table conds({"Condvar", "Waits", "Signals", "CP crossings"});
    for (const auto& cs : result.conds) {
      conds.add_row({cs.name, std::to_string(cs.waits),
                     std::to_string(cs.signals), std::to_string(cs.cp_jumps)});
    }
    out << "--- condition variables ---\n" << conds.to_text() << '\n';
  }

  Table threads({"Thread", "Duration ns", "CP Time %", "Lock Wait %",
                 "Lock Hold %", "Sync ops"});
  for (const auto& ts : result.threads) {
    const auto dur = static_cast<double>(ts.duration);
    threads.add_row(
        {ts.name, std::to_string(ts.duration),
         percent_string(util::safe_ratio(static_cast<double>(ts.cp_time),
                                         static_cast<double>(result.completion_time))),
         percent_string(util::safe_ratio(static_cast<double>(ts.lock_wait_time), dur)),
         percent_string(util::safe_ratio(static_cast<double>(ts.lock_hold_time), dur)),
         std::to_string(ts.sync_ops)});
  }
  out << "--- threads ---\n" << threads.to_text();
  return out.str();
}

std::string render_json(const AnalysisResult& result,
                        const JsonReportMeta& meta) {
  std::ostringstream out;
  // Traces without callsite capture must keep producing the schema-2
  // payload byte-for-byte; the "callsites" array bumps it to 3.
  const bool with_callsites = !result.callsites.empty();
  out << "{\n  \"schema\": " << (with_callsites ? 3 : 2)
      << ",\n  \"completion_time_ns\": " << result.completion_time
      << ",\n  \"worker_threads\": " << result.worker_threads
      << ",\n  \"path_intervals\": " << result.path.intervals.size()
      << ",\n  \"path_jumps\": " << result.path.jumps.size()
      << ",\n  \"dag\": ";
  if (meta.has_dag) {
    out << "{\"segments\": " << meta.dag_segments
        << ", \"threads\": " << meta.dag_threads << "}";
  } else {
    out << "null";
  }
  out << ",\n  \"locks\": [\n";
  for (std::size_t i = 0; i < result.locks.size(); ++i) {
    const LockStats& ls = result.locks[i];
    out << "    {\"name\": " << util::json_quoted(ls.name);
    out << ", \"critical\": " << (ls.is_critical() ? "true" : "false")
        << ", \"cp_time_fraction\": " << ls.cp_time_fraction
        << ", \"cp_invocations\": " << ls.cp_invocations
        << ", \"cp_contention_prob\": " << ls.cp_contention_prob
        << ", \"wait_time_fraction\": " << ls.avg_wait_fraction
        << ", \"avg_invocations\": " << ls.avg_invocations
        << ", \"avg_contention_prob\": " << ls.avg_contention_prob
        << ", \"avg_hold_fraction\": " << ls.avg_hold_fraction
        << ", \"invocation_increase\": " << ls.invocation_increase
        << ", \"hold_increase\": " << ls.hold_increase << "}"
        << (i + 1 < result.locks.size() ? "," : "") << '\n';
  }
  out << "  ]";
  if (with_callsites) {
    out << ",\n  \"callsites\": [\n";
    for (std::size_t i = 0; i < result.callsites.size(); ++i) {
      const CallsiteStats& cs = result.callsites[i];
      out << "    {\"lock\": " << util::json_quoted(cs.lock_name);
      out << ", \"stack_id\": " << cs.stack_id << ", \"frames\": [";
      for (std::size_t f = 0; f < cs.frames.size(); ++f) {
        if (f != 0) out << ", ";
        out << util::json_quoted(cs.frames[f]);
      }
      out << "], \"cp_time_fraction\": " << cs.cp_time_fraction
          << ", \"cp_hold_time_ns\": " << cs.cp_hold_time
          << ", \"cp_invocations\": " << cs.cp_invocations
          << ", \"cp_contended\": " << cs.cp_contended
          << ", \"invocations\": " << cs.invocations
          << ", \"contended\": " << cs.contended
          << ", \"total_wait_ns\": " << cs.total_wait
          << ", \"total_hold_ns\": " << cs.total_hold << "}"
          << (i + 1 < result.callsites.size() ? "," : "") << '\n';
    }
    out << "  ]";
  }
  out << ",\n  \"barriers\": [\n";
  for (std::size_t i = 0; i < result.barriers.size(); ++i) {
    const BarrierStats& bs = result.barriers[i];
    out << "    {\"name\": " << util::json_quoted(bs.name);
    out << ", \"episodes\": " << bs.episodes << ", \"waits\": " << bs.waits
        << ", \"avg_wait_fraction\": " << bs.avg_wait_fraction
        << ", \"cp_crossings\": " << bs.cp_jumps << "}"
        << (i + 1 < result.barriers.size() ? "," : "") << '\n';
  }
  out << "  ]";
  if (meta.include_profile) {
    out << ",\n  \"profile\": [\n";
    for (std::size_t i = 0; i < meta.profile.size(); ++i) {
      out << "    {\"stage\": " << util::json_quoted(meta.profile[i].first);
      out << ", \"ns\": " << meta.profile[i].second << "}"
          << (i + 1 < meta.profile.size() ? "," : "") << '\n';
    }
    out << "  ]";
  }
  out << "\n}\n";
  return out.str();
}

std::string render_json(const AnalysisResult& result) {
  return render_json(result, JsonReportMeta{});
}

}  // namespace cla::analysis

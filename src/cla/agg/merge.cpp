#include "cla/agg/merge.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "cla/util/diagnostics.hpp"
#include "cla/util/table.hpp"

namespace cla::agg {

namespace {

// Fixed-precision rendering (snprintf, deterministic across platforms).
using util::fixed;

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0
             ? 0.0
             : static_cast<double>(numerator) / static_cast<double>(denominator);
}

}  // namespace

MergedReport merge_records(std::vector<RunRecord> records) {
  MergedReport report;
  std::set<std::string> hosts;
  std::set<std::string> labels;
  std::map<std::string, MergedLock> locks;
  for (const RunRecord& record : merge_duplicates(std::move(records))) {
    report.runs += 1;
    report.wall_ns += record.wall_ns;
    report.thread_ns += record.wall_ns * record.worker_threads;
    report.events += record.events;
    report.dropped_events += record.dropped_events;
    report.skipped_bytes += record.skipped_bytes;
    report.windows_shed += record.windows_shed;
    report.rotations += record.rotations;
    if (!record.host.empty()) hosts.insert(record.host);
    if (!record.label.empty()) labels.insert(record.label);
    for (const LockAgg& lock : record.locks) {
      MergedLock& merged = locks[lock.name];
      merged.name = lock.name;
      merged.runs += 1;
      merged.totals.cp_hold_ns += lock.cp_hold_ns;
      merged.totals.cp_invocations += lock.cp_invocations;
      merged.totals.cp_contended += lock.cp_contended;
      merged.totals.invocations += lock.invocations;
      merged.totals.contended += lock.contended;
      merged.totals.wait_ns += lock.wait_ns;
      merged.totals.hold_ns += lock.hold_ns;
    }
  }
  report.hosts.assign(hosts.begin(), hosts.end());
  report.labels.assign(labels.begin(), labels.end());
  report.locks.reserve(locks.size());
  for (auto& [name, merged] : locks) {
    merged.cp_share = ratio(merged.totals.cp_hold_ns, report.wall_ns);
    merged.cp_contention =
        ratio(merged.totals.cp_contended, merged.totals.cp_invocations);
    merged.contention =
        ratio(merged.totals.contended, merged.totals.invocations);
    merged.wait_share = ratio(merged.totals.wait_ns, report.thread_ns);
    report.locks.push_back(std::move(merged));
  }
  std::sort(report.locks.begin(), report.locks.end(),
            [](const MergedLock& a, const MergedLock& b) {
              if (a.cp_share != b.cp_share) return a.cp_share > b.cp_share;
              return a.name < b.name;
            });
  return report;
}

std::vector<RunRecord> filter_label(const std::vector<RunRecord>& records,
                                    const std::string& label) {
  std::vector<RunRecord> out;
  for (const RunRecord& record : records) {
    if (record.label == label) out.push_back(record);
  }
  return out;
}

std::string merged_report_text(const MergedReport& report) {
  std::ostringstream out;
  out << "runs: " << report.runs << "  hosts: " << report.hosts.size()
      << "  critical-path: " << report.wall_ns << " ns\n";
  if (report.dropped_events != 0 || report.skipped_bytes != 0 ||
      report.windows_shed != 0) {
    out << "loss: " << report.dropped_events << " dropped events, "
        << report.skipped_bytes << " skipped bytes, " << report.windows_shed
        << " shed windows (aggregates are lower bounds)\n";
  }
  out << "lock                              cp-share  cp-cont   cont  "
         "wait-share  runs\n";
  for (const MergedLock& lock : report.locks) {
    std::string name = lock.name;
    if (name.size() > 32) name = name.substr(0, 29) + "...";
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-32s  %8.4f  %7.4f  %5.3f  %10.4f  %4llu\n", name.c_str(),
                  lock.cp_share, lock.cp_contention, lock.contention,
                  lock.wait_share,
                  static_cast<unsigned long long>(lock.runs));
    out << line;
  }
  return out.str();
}

std::string merged_report_json(const MergedReport& report) {
  std::ostringstream out;
  out << "{\"schema\":1,\"runs\":" << report.runs
      << ",\"wall_ns\":" << report.wall_ns
      << ",\"thread_ns\":" << report.thread_ns
      << ",\"events\":" << report.events
      << ",\"dropped_events\":" << report.dropped_events
      << ",\"skipped_bytes\":" << report.skipped_bytes
      << ",\"windows_shed\":" << report.windows_shed
      << ",\"rotations\":" << report.rotations << ",\"hosts\":[";
  for (std::size_t i = 0; i < report.hosts.size(); ++i) {
    if (i > 0) out << ',';
    out << util::json_quoted(report.hosts[i]);
  }
  out << "],\"labels\":[";
  for (std::size_t i = 0; i < report.labels.size(); ++i) {
    if (i > 0) out << ',';
    out << util::json_quoted(report.labels[i]);
  }
  out << "],\"locks\":[";
  for (std::size_t i = 0; i < report.locks.size(); ++i) {
    const MergedLock& lock = report.locks[i];
    if (i > 0) out << ',';
    out << "{\"name\":" << util::json_quoted(lock.name);
    out << ",\"runs\":" << lock.runs << ",\"cp_share\":"
        << fixed(lock.cp_share, 6)
        << ",\"cp_contention\":" << fixed(lock.cp_contention, 6)
        << ",\"contention\":" << fixed(lock.contention, 6)
        << ",\"wait_share\":" << fixed(lock.wait_share, 6)
        << ",\"cp_hold_ns\":" << lock.totals.cp_hold_ns
        << ",\"cp_invocations\":" << lock.totals.cp_invocations
        << ",\"cp_contended\":" << lock.totals.cp_contended
        << ",\"invocations\":" << lock.totals.invocations
        << ",\"contended\":" << lock.totals.contended
        << ",\"wait_ns\":" << lock.totals.wait_ns
        << ",\"hold_ns\":" << lock.totals.hold_ns << '}';
  }
  out << "]}";
  return out.str();
}

DiffResult diff_reports(const MergedReport& baseline,
                        const MergedReport& current,
                        const DiffThresholds& thresholds) {
  DiffResult result;
  std::map<std::string, const MergedLock*> base_locks;
  for (const MergedLock& lock : baseline.locks) {
    base_locks.emplace(lock.name, &lock);
  }
  const auto regressed = [&thresholds](double base, double now,
                                       double abs_floor) {
    return now - base > abs_floor && now > base * (1.0 + thresholds.relative);
  };
  std::set<std::string> seen;
  for (const MergedLock& lock : current.locks) {
    seen.insert(lock.name);
    const auto it = base_locks.find(lock.name);
    if (it == base_locks.end()) {
      // A lock the baseline never saw: only worth an alert once it
      // carries meaningful CP share on its own.
      if (lock.cp_share > thresholds.cp_share_abs) {
        result.alerts.push_back(
            {lock.name, "new_lock", 0.0, lock.cp_share});
      }
      continue;
    }
    const MergedLock& base = *it->second;
    if (regressed(base.cp_share, lock.cp_share, thresholds.cp_share_abs)) {
      result.alerts.push_back(
          {lock.name, "cp_share", base.cp_share, lock.cp_share});
    }
    if (regressed(base.cp_contention, lock.cp_contention,
                  thresholds.contention_abs)) {
      result.alerts.push_back({lock.name, "contention", base.cp_contention,
                               lock.cp_contention});
    }
  }
  for (const MergedLock& lock : baseline.locks) {
    if (seen.count(lock.name) == 0 &&
        lock.cp_share > thresholds.cp_share_abs) {
      result.notes.push_back("lock " + lock.name +
                             " disappeared (baseline cp-share " +
                             fixed(lock.cp_share, 4) + ")");
    }
  }
  std::sort(result.alerts.begin(), result.alerts.end(),
            [](const RegressionAlert& a, const RegressionAlert& b) {
              if (a.lock != b.lock) return a.lock < b.lock;
              return a.metric < b.metric;
            });
  return result;
}

std::string diff_text(const DiffResult& diff) {
  std::ostringstream out;
  if (diff.alerts.empty()) {
    out << "no regressions detected\n";
  } else {
    out << diff.alerts.size() << " regression(s) detected:\n";
    for (const RegressionAlert& alert : diff.alerts) {
      out << "  REGRESSION " << alert.lock << " " << alert.metric << ": "
          << fixed(alert.baseline, 4) << " -> " << fixed(alert.current, 4)
          << "\n";
    }
  }
  for (const std::string& text : diff.notes) {
    out << "  note: " << text << "\n";
  }
  return out.str();
}

std::string diff_json(const DiffResult& diff) {
  std::ostringstream out;
  out << "{\"schema\":1,\"regressions\":[";
  for (std::size_t i = 0; i < diff.alerts.size(); ++i) {
    const RegressionAlert& alert = diff.alerts[i];
    if (i > 0) out << ',';
    out << "{\"lock\":" << util::json_quoted(alert.lock);
    out << ",\"metric\":" << util::json_quoted(alert.metric);
    out << ",\"baseline\":" << fixed(alert.baseline, 6)
        << ",\"current\":" << fixed(alert.current, 6) << '}';
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < diff.notes.size(); ++i) {
    if (i > 0) out << ',';
    out << util::json_quoted(diff.notes[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace cla::agg

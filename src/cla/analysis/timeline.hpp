// ASCII timeline (Gantt) export — the Fig. 1 / Fig. 7 views.
//
// Renders per-thread lanes over time with critical sections, waits and the
// critical path marked, plus a machine-readable interval dump for plotting.
#pragma once

#include <string>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"

namespace cla::analysis {

struct TimelineOptions {
  std::size_t width = 100;  ///< characters across the full time range
  bool mark_critical_path = true;
};

/// Lane legend:  '.' idle/off-CPU wait, '-' non-critical execution,
/// '#' critical section, '=' critical section on the critical path,
/// '*' non-CS execution on the critical path, 'B' barrier wait.
std::string render_timeline(const TraceIndex& index, const CriticalPath& path,
                            const TimelineOptions& options = {});

/// CSV rows: thread,kind,begin_ts,end_ts,object,on_critical_path.
std::string timeline_csv(const TraceIndex& index, const CriticalPath& path);

}  // namespace cla::analysis

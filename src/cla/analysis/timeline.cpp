#include "cla/analysis/timeline.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace cla::analysis {

namespace {

/// Rank of a lane glyph; higher ranks overwrite lower ones when intervals
/// map to the same character cell.
int glyph_rank(char ch) {
  switch (ch) {
    case ' ': return 0;
    case '.': return 1;
    case 'B': return 2;
    case '-': return 3;
    case '*': return 4;
    case '#': return 5;
    case '=': return 6;
    default: return 0;
  }
}

void paint(std::string& lane, std::size_t width, std::uint64_t t0,
           std::uint64_t t1, std::uint64_t begin, std::uint64_t end, char ch) {
  if (t1 <= t0 || end <= begin) return;
  // An interval entirely outside [t0, t1) must not paint at all; without
  // this, clamp_col maps it onto the edge cell (column 0 or width-1).
  if (end <= t0 || begin >= t1) return;
  const double scale = static_cast<double>(width) / static_cast<double>(t1 - t0);
  auto clamp_col = [&](std::uint64_t ts) {
    const double col = static_cast<double>(ts - std::min(ts, t0)) * scale;
    return std::min(width - 1, static_cast<std::size_t>(col));
  };
  const std::size_t c0 = clamp_col(std::max(begin, t0));
  const std::size_t c1 = clamp_col(std::min(end, t1));
  for (std::size_t c = c0; c <= c1; ++c) {
    if (glyph_rank(ch) > glyph_rank(lane[c])) lane[c] = ch;
  }
}

}  // namespace

std::string render_timeline(const TraceIndex& index, const CriticalPath& path,
                            const TimelineOptions& options) {
  const trace::TraceView& t = index.view();
  const std::uint64_t t0 = t.start_ts();
  const std::uint64_t t1 = t.end_ts();
  const std::size_t width = std::max<std::size_t>(options.width, 10);

  std::ostringstream out;
  out << "time range: [" << t0 << ", " << t1 << "] ns, 1 column ~ "
      << (t1 > t0 ? (t1 - t0) / width : 0) << " ns\n";
  out << "legend: '-' run  '#' critical section  '=' CS on critical path  "
         "'*' on critical path  '.' lock wait  'B' barrier wait\n";

  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    std::string lane(width, ' ');
    const ThreadInfo& info = index.threads()[tid];
    paint(lane, width, t0, t1, info.start_ts, info.exit_ts, '-');

    if (options.mark_critical_path && tid < path.per_thread.size()) {
      for (const auto& iv : path.per_thread[tid])
        paint(lane, width, t0, t1, iv.begin_ts, iv.end_ts, '*');
    }
    for (const auto& [id, mi] : index.mutexes()) {
      (void)id;
      for (const auto& [acquired_ts, section] : mi.order) {
        if (section.tid != tid) continue;
        const SectionRow& cs = index.row(section);
        if (cs.contended())
          paint(lane, width, t0, t1, index.acquire_ts(section), cs.acquired_ts,
                '.');
        const bool on_path =
            options.mark_critical_path &&
            path.overlap(tid, cs.acquired_ts, cs.released_ts) > 0;
        paint(lane, width, t0, t1, cs.acquired_ts, cs.released_ts,
              on_path ? '=' : '#');
      }
    }
    for (const auto& [id, bi] : index.barriers()) {
      (void)id;
      for (const auto& w : bi.waits) {
        if (w.tid != tid) continue;
        paint(lane, width, t0, t1, w.arrive_ts, w.leave_ts, 'B');
      }
    }
    std::string name = t.thread_display_name(tid);
    name.resize(8, ' ');
    out << name << '|' << lane << "|\n";
  }
  return out.str();
}

std::string timeline_csv(const TraceIndex& index, const CriticalPath& path) {
  const trace::TraceView& t = index.view();
  std::ostringstream out;
  out << "thread,kind,begin_ts,end_ts,object,on_critical_path\n";
  for (const auto& [id, mi] : index.mutexes()) {
    for (const auto& [acquired_ts, section] : mi.order) {
      const SectionRow& cs = index.row(section);
      const bool on_path =
          path.overlap(section.tid, cs.acquired_ts, cs.released_ts) > 0;
      if (cs.contended()) {
        out << t.thread_display_name(section.tid) << ",wait,"
            << index.acquire_ts(section) << ',' << cs.acquired_ts << ','
            << t.object_display_name(id, "mutex") << ",0\n";
      }
      out << t.thread_display_name(section.tid) << ",cs," << cs.acquired_ts
          << ',' << cs.released_ts << ',' << t.object_display_name(id, "mutex")
          << ',' << (on_path ? 1 : 0) << '\n';
    }
  }
  for (const auto& [id, bi] : index.barriers()) {
    for (const auto& w : bi.waits) {
      out << t.thread_display_name(w.tid) << ",barrier," << w.arrive_ts << ','
          << w.leave_ts << ',' << t.object_display_name(id, "barrier") << ",0\n";
    }
  }
  for (const auto& iv : path.intervals) {
    out << t.thread_display_name(iv.tid) << ",critical_path," << iv.begin_ts
        << ',' << iv.end_ts << ",,1\n";
  }
  return out.str();
}

std::string dag_segments_csv(const SegmentDag& dag) {
  const trace::TraceView& t = dag.view();
  std::ostringstream out;
  out << "thread,segment,begin_idx,begin_ts,kind,object,jump_thread,jump_idx\n";
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(dag.thread_count()); ++tid) {
    const auto& segs = dag.thread_segments(tid);
    for (std::size_t k = 0; k < segs.size(); ++k) {
      const Segment& s = segs[k];
      out << t.thread_display_name(tid) << ',' << k << ',' << s.begin_idx
          << ',' << s.begin_ts << ',' << trace::to_string(s.kind) << ',';
      if (s.object != trace::kNoObject) {
        out << t.object_display_name(s.object, "object");
      }
      out << ',';
      if (s.has_jump()) {
        out << t.thread_display_name(s.jump_to.tid) << ',' << s.jump_to.index;
      } else {
        out << ',';
      }
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace cla::analysis

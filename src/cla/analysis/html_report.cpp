#include "cla/analysis/html_report.hpp"

#include <sstream>

#include "cla/util/diagnostics.hpp"

namespace cla::analysis {

namespace {

/// Escapes text for an HTML text node or attribute value.
std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += ch;
    }
  }
  return out;
}

/// Makes a JSON payload safe inside a <script> element: "</script>" (or
/// any "</") inside a string value would end the element early. "<\/" is
/// the same JSON text.
std::string embed_json(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '<' && i + 1 < json.size() && json[i + 1] == '/') {
      out += "<\\/";
      ++i;
    } else {
      out += json[i];
    }
  }
  return out;
}


/// Lane data for the timeline: the same intervals timeline_csv() dumps,
/// structured per thread for the in-page renderer.
std::string timeline_json(const TraceIndex& index, const CriticalPath& path) {
  const trace::TraceView& t = index.view();
  std::ostringstream out;
  out << "{\"t0\": " << t.start_ts() << ", \"t1\": " << t.end_ts()
      << ", \"lanes\": [";
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const ThreadInfo& info = index.threads()[tid];
    if (tid != 0) out << ',';
    out << "\n  {\"name\": " << util::json_quoted(t.thread_display_name(tid));
    out << ", \"start\": " << info.start_ts << ", \"end\": " << info.exit_ts
        << ", \"iv\": [";
    bool first = true;
    auto emit = [&](const char* kind, std::uint64_t b, std::uint64_t e,
                    const std::string& object) {
      if (!first) out << ',';
      first = false;
      out << "{\"k\": \"" << kind << "\", \"b\": " << b << ", \"e\": " << e
          << ", \"o\": ";
      out << util::json_quoted(object);
      out << '}';
    };
    for (const auto& [id, mi] : index.mutexes()) {
      const std::string name = t.object_display_name(id, "mutex");
      for (const auto& [acquired_ts, section] : mi.order) {
        if (section.tid != tid) continue;
        const SectionRow& cs = index.row(section);
        if (cs.contended()) {
          emit("wait", index.acquire_ts(section), cs.acquired_ts, name);
        }
        const bool on_path =
            path.overlap(tid, cs.acquired_ts, cs.released_ts) > 0;
        emit(on_path ? "csp" : "cs", cs.acquired_ts, cs.released_ts, name);
      }
    }
    for (const auto& [id, bi] : index.barriers()) {
      const std::string name = t.object_display_name(id, "barrier");
      for (const auto& w : bi.waits) {
        if (w.tid != tid) continue;
        emit("bar", w.arrive_ts, w.leave_ts, name);
      }
    }
    out << "], \"cp\": [";
    if (tid < path.per_thread.size()) {
      for (std::size_t k = 0; k < path.per_thread[tid].size(); ++k) {
        const PathInterval& iv = path.per_thread[tid][k];
        out << (k != 0 ? "," : "") << '[' << iv.begin_ts << ',' << iv.end_ts
            << ']';
      }
    }
    out << "]}";
  }
  out << "\n]}\n";
  return out.str();
}

// Inline stylesheet and renderer. Kept dependency-free on purpose: the
// report must open from file:// with no network access.
constexpr const char* kStyle = R"css(
  body { font: 14px/1.4 system-ui, sans-serif; margin: 1.5em; color: #222; }
  h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
  .meta { color: #555; }
  #flame { position: relative; border: 1px solid #ccc; overflow: hidden; }
  #flame div { position: absolute; box-sizing: border-box; height: 18px;
    font-size: 11px; line-height: 16px; white-space: nowrap;
    overflow: hidden; border: 1px solid rgba(255,255,255,.7);
    border-radius: 2px; padding: 0 3px; cursor: default; }
  #timeline svg { border: 1px solid #ccc; width: 100%; }
  .legend span { display: inline-block; margin-right: 1.2em; }
  .legend i { display: inline-block; width: 12px; height: 12px;
    margin-right: .35em; vertical-align: -1px; }
  #detail { color: #555; min-height: 1.4em; font-family: monospace;
    white-space: pre; }
)css";

constexpr const char* kScript = R"js(
var report = JSON.parse(document.getElementById('cla-report').textContent);
var tl = JSON.parse(document.getElementById('cla-timeline').textContent);
var detail = document.getElementById('detail');

function fmtNs(ns) {
  if (ns >= 1e9) return (ns / 1e9).toFixed(3) + ' s';
  if (ns >= 1e6) return (ns / 1e6).toFixed(3) + ' ms';
  if (ns >= 1e3) return (ns / 1e3).toFixed(3) + ' us';
  return ns + ' ns';
}
function color(name) {
  var h = 2166136261 >>> 0;
  for (var i = 0; i < name.length; i++) {
    h = (h ^ name.charCodeAt(i)) >>> 0; h = Math.imul(h, 16777619) >>> 0;
  }
  return 'hsl(' + (h % 360) + ',' + (55 + h % 25) + '%,' +
         (62 + (h >> 8) % 12) + '%)';
}

// --- flame graph: root -> outer frame -> ... -> inner frame -> lock ---
function flameTree() {
  var root = { name: 'critical path', value: 0, children: {} };
  function insert(path, weight) {
    if (weight <= 0) return;
    root.value += weight;
    var node = root;
    path.forEach(function (part) {
      if (!node.children[part])
        node.children[part] = { name: part, value: 0, children: {} };
      node = node.children[part];
      node.value += weight;
    });
  }
  if (report.callsites && report.callsites.length) {
    report.callsites.forEach(function (cs) {
      var path = cs.frames.slice().reverse();  // outermost first
      if (!path.length) path = ['stack#' + cs.stack_id];
      path.push(cs.lock);
      insert(path, cs.cp_hold_time_ns);
    });
  } else {
    report.locks.forEach(function (l) {
      insert([l.name],
             Math.round(l.cp_time_fraction * report.completion_time_ns));
    });
  }
  return root;
}
function renderFlame() {
  var el = document.getElementById('flame');
  var root = flameTree();
  if (root.value <= 0) {
    el.textContent = 'no critical-path lock time to draw';
    el.style.height = '24px'; el.style.padding = '2px 6px';
    return;
  }
  var maxDepth = 0;
  (function walk(node, x, depth) {
    maxDepth = Math.max(maxDepth, depth);
    var keys = Object.keys(node.children).sort();
    var cx = x;
    keys.forEach(function (k) {
      var child = node.children[k];
      var d = document.createElement('div');
      d.style.left = (100 * cx / root.value) + '%';
      d.style.width = (100 * child.value / root.value) + '%';
      d.style.top = (depth * 18) + 'px';
      d.style.background = color(child.name);
      d.textContent = child.name;
      var pct = (100 * child.value / root.value).toFixed(2);
      d.title = child.name + '\n' + fmtNs(child.value) + ' on the critical path (' + pct + '%)';
      d.onmouseenter = function () { detail.textContent = d.title.replace('\n', ' — '); };
      d.onmouseleave = function () { detail.textContent = ''; };
      el.appendChild(d);
      walk(child, cx, depth + 1);
      cx += child.value;
    });
  })(root, 0, 0);
  el.style.height = ((maxDepth + 1) * 18 + 2) + 'px';
}

// --- timeline: one lane per thread ---
var KIND_COLOR = { cs: '#f2a34c', csp: '#d64545', wait: '#7d9fd3',
                   bar: '#9d7dd3' };
function renderTimeline() {
  var el = document.getElementById('timeline');
  if (!tl || !tl.lanes || !tl.lanes.length || tl.t1 <= tl.t0) {
    el.textContent = tl ? 'empty trace' :
        'timeline omitted (bounded-memory analysis)';
    return;
  }
  var laneH = 20, labelW = 90, width = 1000;
  var span = tl.t1 - tl.t0;
  var svgNS = 'http://www.w3.org/2000/svg';
  var svg = document.createElementNS(svgNS, 'svg');
  svg.setAttribute('viewBox',
      '0 0 ' + (labelW + width) + ' ' + (tl.lanes.length * laneH + 4));
  function x(ts) { return labelW + (ts - tl.t0) * width / span; }
  function rect(x0, x1, y, h, fill, title) {
    var r = document.createElementNS(svgNS, 'rect');
    r.setAttribute('x', x0); r.setAttribute('y', y);
    r.setAttribute('width', Math.max(x1 - x0, 0.5));
    r.setAttribute('height', h); r.setAttribute('fill', fill);
    if (title) {
      var t = document.createElementNS(svgNS, 'title');
      t.textContent = title; r.appendChild(t);
      r.onmouseenter = function () { detail.textContent = title; };
      r.onmouseleave = function () { detail.textContent = ''; };
    }
    svg.appendChild(r);
    return r;
  }
  tl.lanes.forEach(function (lane, i) {
    var y = i * laneH + 2;
    var label = document.createElementNS(svgNS, 'text');
    label.setAttribute('x', 2); label.setAttribute('y', y + 13);
    label.setAttribute('font-size', '11');
    label.textContent = lane.name;
    svg.appendChild(label);
    rect(x(lane.start), x(lane.end), y + 7, 4, '#ddd',
         lane.name + ': ' + fmtNs(lane.end - lane.start));
    lane.iv.forEach(function (iv) {
      rect(x(iv.b), x(iv.e), y + 3, 12, KIND_COLOR[iv.k] || '#999',
           lane.name + ' ' + iv.k + ' ' + iv.o + ': ' + fmtNs(iv.e - iv.b));
    });
    lane.cp.forEach(function (cp) {
      rect(x(cp[0]), x(cp[1]), y + 1, 2, '#d64545',
           'critical path on ' + lane.name + ': ' + fmtNs(cp[1] - cp[0]));
    });
  });
  el.appendChild(svg);
}

renderFlame();
renderTimeline();
)js";

}  // namespace

std::string render_html(const AnalysisResult& result,
                        const JsonReportMeta& meta, const TraceIndex* index,
                        const HtmlReportOptions& options) {
  const std::string report_json = render_json(result, meta);
  const std::string lanes_json =
      index != nullptr ? timeline_json(*index, result.path) : "null";

  std::ostringstream out;
  out << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n<title>"
      << html_escape(options.title) << "</title>\n<style>" << kStyle
      << "</style>\n</head>\n<body>\n";
  out << "<h1>" << html_escape(options.title) << "</h1>\n";
  out << "<p class=\"meta\">completion time " << result.completion_time
      << " ns &middot; " << result.locks.size() << " lock(s) &middot; "
      << result.callsites.size() << " (lock, callsite) pair(s) &middot; "
      << result.threads.size() << " thread(s)</p>\n";

  out << "<h2>Critical-path flame graph</h2>\n"
      << "<p class=\"meta\">width = CP time; stacks grow downward from "
      << (result.callsites.empty()
              ? "locks (record with CLA_STACK_DEPTH&gt;0 for callsites)"
              : "the outermost acquisition frame; leaves are locks")
      << "</p>\n<div id=\"flame\"></div>\n";

  out << "<h2>Timeline</h2>\n<p class=\"legend\">"
      << "<span><i style=\"background:#f2a34c\"></i>critical section</span>"
      << "<span><i style=\"background:#d64545\"></i>on critical path</span>"
      << "<span><i style=\"background:#7d9fd3\"></i>lock wait</span>"
      << "<span><i style=\"background:#9d7dd3\"></i>barrier wait</span>"
      << "</p>\n<div id=\"timeline\"></div>\n<p id=\"detail\"></p>\n";

  out << "<script type=\"application/json\" id=\"cla-report\">\n"
      << embed_json(report_json) << "</script>\n";
  out << "<script type=\"application/json\" id=\"cla-timeline\">\n"
      << embed_json(lanes_json) << "</script>\n";
  out << "<script>" << kScript << "</script>\n</body>\n</html>\n";
  return out.str();
}

}  // namespace cla::analysis

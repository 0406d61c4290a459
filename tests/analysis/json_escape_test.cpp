// Names with control characters must still produce valid JSON: every
// writer goes through util::append_json_string, which escapes \t, \r, \n
// and the other C0 controls. Checked on the `--json` report and on both
// JSON payloads embedded in the HTML report, with a strict parser that
// rejects raw control characters the way Python's json.load does.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cla/analysis/html_report.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/util/diagnostics.hpp"
#include "support/json_check.hpp"

namespace cla::analysis {
namespace {

const std::string kLockName = "L\t\r\x01";
const std::string kThreadName = "T\t\r\x01";

trace::Trace control_char_trace() {
  trace::TraceBuilder b;
  b.name_object(1, kLockName);
  b.name_thread(0, kThreadName);
  b.thread(0).start(0).lock_uncontended(1, 10, 50).exit(100);
  return b.finish();
}

bool holds(const test_support::JsonCheck& check, const std::string& s) {
  return std::find(check.strings.begin(), check.strings.end(), s) !=
         check.strings.end();
}

/// The JSON text of the <script type="application/json" id=`id`> block.
std::string embedded(const std::string& html, const std::string& id) {
  const std::string open =
      "<script type=\"application/json\" id=\"" + id + "\">\n";
  const std::size_t at = html.find(open);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + open.size();
  return html.substr(begin, html.find("</script>", begin) - begin);
}

TEST(JsonEscape, EscaperCoversEveryControlCharacter) {
  EXPECT_EQ(util::json_quoted("a\"b\\c\nd\re\tf\x01g\x1f"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\"");
}

TEST(JsonEscape, JsonReportWithControlCharacterNamesParses) {
  Pipeline pipeline;
  pipeline.use_trace(control_char_trace());
  test_support::JsonCheck check;
  ASSERT_TRUE(check.parse(pipeline.report_json())) << check.error;
  EXPECT_TRUE(holds(check, kLockName));
}

TEST(JsonEscape, HtmlPayloadsWithControlCharacterNamesParse) {
  const trace::Trace trace = control_char_trace();
  Pipeline pipeline;
  pipeline.use_trace(trace);
  const TraceIndex index(trace);
  const std::string html =
      render_html(pipeline.result(), JsonReportMeta{}, &index);
  test_support::JsonCheck report;
  ASSERT_TRUE(report.parse(embedded(html, "cla-report"))) << report.error;
  EXPECT_TRUE(holds(report, kLockName));
  test_support::JsonCheck timeline;
  ASSERT_TRUE(timeline.parse(embedded(html, "cla-timeline"))) << timeline.error;
  EXPECT_TRUE(holds(timeline, kThreadName));
  EXPECT_TRUE(holds(timeline, kLockName));
}

}  // namespace
}  // namespace cla::analysis

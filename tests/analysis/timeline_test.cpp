#include "cla/analysis/timeline.hpp"

#include <gtest/gtest.h>

#include "cla/analysis/critical_path.hpp"
#include "cla/trace/builder.hpp"

namespace cla::analysis {
namespace {

trace::Trace two_thread_trace() {
  trace::TraceBuilder b;
  b.name_object(9, "Q");
  b.name_object(7, "bar");
  b.thread(0).start(0).lock(9, 0, 0, 60).barrier(7, 60, 90, 0).exit(100);
  b.thread(1)
      .start(0, trace::kNoThread)
      .lock(9, 10, 60, 90)
      .barrier(7, 90, 90, 0)
      .exit(120);
  return b.finish_unchecked();
}

class TimelineTest : public ::testing::Test {
 protected:
  TimelineTest()
      : trace_(two_thread_trace()),
        index_(trace_),
        path_(compute_critical_path(SegmentDag::build(index_, nullptr),
                                    nullptr)) {}

  trace::Trace trace_;
  TraceIndex index_;
  CriticalPath path_;
};

TEST_F(TimelineTest, RendersOneLanePerThread) {
  const std::string text = render_timeline(index_, path_);
  EXPECT_NE(text.find("T0"), std::string::npos);
  EXPECT_NE(text.find("T1"), std::string::npos);
  // Two lanes delimited by pipes.
  EXPECT_GE(std::count(text.begin(), text.end(), '|'), 4);
}

TEST_F(TimelineTest, MarksWaitsBarriersAndCriticalSections) {
  const std::string text = render_timeline(index_, path_);
  EXPECT_NE(text.find('.'), std::string::npos);  // T1's lock wait
  EXPECT_NE(text.find('B'), std::string::npos);  // T0's barrier wait
  EXPECT_NE(text.find('='), std::string::npos);  // CS on the critical path
}

TEST_F(TimelineTest, WidthIsRespected) {
  TimelineOptions options;
  options.width = 40;
  const std::string text = render_timeline(index_, path_, options);
  for (const char lane_start : {'0', '1'}) {
    const auto pos = text.find(std::string("T") + lane_start);
    ASSERT_NE(pos, std::string::npos);
    const auto open = text.find('|', pos);
    const auto close = text.find('|', open + 1);
    EXPECT_EQ(close - open - 1, 40u);
  }
}

TEST_F(TimelineTest, CsvListsAllIntervalKinds) {
  const std::string csv = timeline_csv(index_, path_);
  EXPECT_EQ(csv.rfind("thread,kind,begin_ts,end_ts,object,on_critical_path", 0), 0u);
  EXPECT_NE(csv.find(",cs,"), std::string::npos);
  EXPECT_NE(csv.find(",wait,"), std::string::npos);
  EXPECT_NE(csv.find(",barrier,"), std::string::npos);
  EXPECT_NE(csv.find(",critical_path,"), std::string::npos);
  EXPECT_NE(csv.find("Q"), std::string::npos);
}

TEST_F(TimelineTest, CsvMarksOnPathSections) {
  const std::string csv = timeline_csv(index_, path_);
  // T0's [0,60) hold is on the critical path.
  EXPECT_NE(csv.find("T0,cs,0,60,Q,1"), std::string::npos);
}

TEST_F(TimelineTest, OutOfRangeIntervalsPaintNothing) {
  // Regression: an interval entirely outside the trace's time range used
  // to clamp onto the edge column and paint a stray glyph there. Clipped
  // traces legitimately carry such path intervals.
  CriticalPath clipped = path_;
  clipped.per_thread[0].push_back(PathInterval{0, 500, 900});   // past end
  const std::string base = render_timeline(index_, path_);
  const std::string text = render_timeline(index_, clipped);
  EXPECT_EQ(text, base);
}

TEST_F(TimelineTest, ZeroDurationTraceRendersWithoutPainting) {
  trace::TraceBuilder b;
  b.thread(0).start(5).exit(5);
  const trace::Trace trace = b.finish();
  const TraceIndex index(trace);
  const CriticalPath path =
      compute_critical_path(SegmentDag::build(index, nullptr), nullptr);
  const std::string text = render_timeline(index, path);
  EXPECT_NE(text.find("time range: [5, 5]"), std::string::npos);
  // Degenerate range: the lane exists but no glyph is painted in it.
  const auto open = text.find('|');
  ASSERT_NE(open, std::string::npos);
  const auto close = text.find('|', open + 1);
  ASSERT_NE(close, std::string::npos);
  const std::string lane = text.substr(open + 1, close - open - 1);
  EXPECT_EQ(lane.find_first_not_of(' '), std::string::npos);
}

}  // namespace
}  // namespace cla::analysis

// Test-local one-shot analysis helper: the test suites want one-liner
// ergonomics, so this header provides them on top of the staged
// cla::analysis::Pipeline.
#pragma once

#include "cla/analysis/pipeline.hpp"
#include "cla/trace/trace.hpp"

namespace cla::test_support {

inline analysis::AnalysisResult analyze(const trace::Trace& trace,
                                        const analysis::Options& options = {}) {
  analysis::Pipeline pipeline(options);
  pipeline.use_trace(trace);
  return pipeline.result();
}

}  // namespace cla::test_support

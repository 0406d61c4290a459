// CLA public facade — one header that exposes the full workflow of the
// paper's tool (Fig. 3):
//
//   1. obtain a trace
//        - run an instrumented workload (cla::workloads / cla::exec),
//        - script a virtual-time execution (cla::sim),
//        - load a .clat file recorded via the LD_PRELOAD interposer
//          (cla::trace::read_trace_file), or
//        - record in-process with cla::rt wrappers;
//   2. analyze it (cla::Pipeline -> TYPE 1 + TYPE 2 statistics);
//   3. render reports (cla::analysis::render_report / tables / timeline).
#pragma once

#include "cla/analysis/pipeline.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/timeline.hpp"
#include "cla/analysis/model.hpp"
#include "cla/analysis/whatif.hpp"
#include "cla/exec/backend.hpp"
#include "cla/sim/engine.hpp"
#include "cla/trace/builder.hpp"
#include "cla/trace/clip.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/guard.hpp"
#include "cla/workloads/workload.hpp"

namespace cla {

/// Library version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr const char* kVersionString = "1.0.0";

using analysis::AnalysisResult;

/// Consolidated per-stage options aggregate (validate flag + stats /
/// report / execution / load sub-structs).
using analysis::Options;

/// Staged analysis executor: load -> validate -> index -> builddag ->
/// walk -> stats -> report, with ExecutionPolicy-driven fan-out of the
/// index/builddag/stats stages and per-stage self-profiling.
using analysis::ExecutionPolicy;
using analysis::Pipeline;
using analysis::PipelineProfile;
using analysis::Stage;

/// Hardened-analysis surface: structured diagnostics, trace repair
/// policies and resource guards (see DESIGN §9).
using util::DiagCode;
using util::Diagnostic;
using util::DiagnosticSink;
using util::ResourceLimits;
using util::Severity;
using util::Strictness;
using trace::RepairSummary;
using trace::repair_trace_semantics;
using trace::validate_trace;

/// Convenience: run a named workload and analyze its trace in one call.
struct RunAnalysis {
  workloads::WorkloadResult run;
  AnalysisResult analysis;
  analysis::PipelineProfile profile;  ///< per-stage analysis timings
};

RunAnalysis run_and_analyze(const std::string& workload,
                            const workloads::WorkloadConfig& config = {},
                            const Options& options = {});

}  // namespace cla

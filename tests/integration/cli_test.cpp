// CLI smoke tests: the cla-run / cla-analyze binaries drive the full
// workflow from a user's shell. Includes the full exit-code contract
// (0 clean, 1 error, 2 usage, 3 lossy, 4 resource limit, 5 strict
// validation failure) — see tools/cla_analyze.cpp and README.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"

namespace {

std::string run_command(const std::string& command, int& exit_code) {
  std::array<char, 4096> buffer{};
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    exit_code = -1;
    return output;
  }
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  // Surface the tool's actual exit code (tests assert on specific values,
  // e.g. 3 = lossy salvage).
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : status;
  return output;
}

std::string tool(const char* name) {
  // Tests run from the build tree; tools live in build/tools.
  return (std::filesystem::path(CLA_TOOLS_DIR) / name).string();
}

TEST(Cli, RunListsWorkloads) {
  int rc = 0;
  const std::string out = run_command(tool("cla-run") + " --list", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("micro"), std::string::npos);
  EXPECT_NE(out.find("radiosity"), std::string::npos);
  EXPECT_NE(out.find("ldap"), std::string::npos);
}

TEST(Cli, RunMicroPrintsBothMetricFamilies) {
  int rc = 0;
  const std::string out =
      run_command(tool("cla-run") + " micro --threads 4 --top 2", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("TYPE 1"), std::string::npos);
  EXPECT_NE(out.find("TYPE 2"), std::string::npos);
  EXPECT_NE(out.find("L2"), std::string::npos);
  EXPECT_NE(out.find("83.33%"), std::string::npos);  // Fig. 6, exactly
}

TEST(Cli, RunRejectsUnknownWorkload) {
  int rc = 0;
  const std::string out = run_command(tool("cla-run") + " warpdrive", rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown workload"), std::string::npos);
}

TEST(Cli, RunRejectsUnknownOption) {
  int rc = 0;
  const std::string out = run_command(tool("cla-run") + " micro --bogus", rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown option"), std::string::npos);
}

TEST(Cli, RunWritesTraceAnalyzeReadsIt) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_test.clat").string();
  std::remove(path.c_str());
  int rc = 0;
  const std::string run_out = run_command(
      tool("cla-run") + " micro --threads 4 --trace-out " + path, rc);
  ASSERT_EQ(rc, 0) << run_out;
  ASSERT_TRUE(std::filesystem::exists(path));

  const std::string analyze_out =
      run_command(tool("cla-analyze") + " " + path + " --top 2", rc);
  EXPECT_EQ(rc, 0) << analyze_out;
  EXPECT_NE(analyze_out.find("L2"), std::string::npos);
  EXPECT_NE(analyze_out.find("TYPE 1"), std::string::npos);

  const std::string whatif_out = run_command(
      tool("cla-analyze") + " " + path + " --top 1 --whatif L2", rc);
  EXPECT_EQ(rc, 0) << whatif_out;
  EXPECT_NE(whatif_out.find("what-if"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, RunJsonOutputIsWellFormedish) {
  int rc = 0;
  const std::string out =
      run_command(tool("cla-run") + " micro --threads 4 --json", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"locks\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

TEST(Cli, RunCsvOutput) {
  int rc = 0;
  const std::string out =
      run_command(tool("cla-run") + " micro --threads 4 --csv", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("Lock,CP Time %"), std::string::npos);
}

TEST(Cli, RunTimelineOutput) {
  int rc = 0;
  const std::string out =
      run_command(tool("cla-run") + " micro --threads 4 --timeline", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("legend:"), std::string::npos);
}

TEST(Cli, AnalyzeSalvageRecoversTruncatedTrace) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_salvage.clat")
          .string();
  std::remove(path.c_str());
  int rc = 0;
  const std::string run_out = run_command(
      tool("cla-run") + " micro --threads 4 --trace-out " + path, rc);
  ASSERT_EQ(rc, 0) << run_out;

  // A clean file salvages losslessly: exit 0, same report.
  const std::string clean_out =
      run_command(tool("cla-analyze") + " " + path + " --salvage --top 2", rc);
  EXPECT_EQ(rc, 0) << clean_out;
  EXPECT_NE(clean_out.find("TYPE 1"), std::string::npos);

  // Tear off the tail: the strict load must fail, the salvage load must
  // produce a report and exit with the dedicated "lossy" code 3.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - full_size / 3);
  const std::string strict_out =
      run_command(tool("cla-analyze") + " " + path, rc);
  EXPECT_EQ(rc, 1) << strict_out;
  // The error gives its reason, not where in the sources the check sits.
  EXPECT_NE(strict_out.find("cla-analyze: trace stream truncated"),
            std::string::npos)
      << strict_out;
  EXPECT_EQ(strict_out.find(".cpp:"), std::string::npos) << strict_out;
  const std::string salvage_out =
      run_command(tool("cla-analyze") + " " + path + " --salvage --top 2", rc);
  EXPECT_EQ(rc, 3) << salvage_out;
  EXPECT_NE(salvage_out.find("salvage:"), std::string::npos);
  EXPECT_NE(salvage_out.find("TYPE 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, AnalyzeRejectsMissingFile) {
  int rc = 0;
  const std::string out =
      run_command(tool("cla-analyze") + " /no/such/file.clat", rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("cannot open"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsTheRemovedEngineOption) {
  // There is one critical-path walk; --engine no longer exists.
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_engine.clat").string();
  int rc = 0;
  const std::string run_out = run_command(
      tool("cla-run") + " micro --threads 2 --trace-out " + path, rc);
  ASSERT_EQ(rc, 0) << run_out;
  const std::string out =
      run_command(tool("cla-analyze") + " " + path + " --engine dag", rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("unknown option"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(Cli, V1IsReadOnlyForEveryWriter) {
  // v1 traces still load, but no tool writes one: --format v1 is a usage
  // error before anything runs or any file is created.
  const auto dir = std::filesystem::temp_directory_path();
  const auto out_path = (dir / "cla_cli_v1_out.clat").string();
  std::remove(out_path.c_str());
  int rc = 0;
  std::string out = run_command(tool("cla-run") +
                                    " micro --threads 2 --trace-out " +
                                    out_path + " --format v1",
                                rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("v1 is read-only"), std::string::npos) << out;
  EXPECT_EQ(out.find("TYPE 1"), std::string::npos) << "ran before refusing";
  EXPECT_FALSE(std::filesystem::exists(out_path));

  const std::string golden = std::string(CLA_TEST_DATA_DIR) + "/golden_v1.clat";
  out = run_command(tool("cla-analyze") + " " + golden + " --convert " +
                        out_path + " --format v1",
                    rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("v1 is read-only"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(out_path));
  out = run_command(
      tool("cla-analyze") + " " + golden + " --convert " + out_path, rc);
  EXPECT_EQ(rc, 0) << out;
  std::remove(out_path.c_str());
}

// Writes a well-formed .clat file whose event stream violates the
// semantic protocol (an unpaired MutexReleased), so the strict validator
// refuses it while repair mode can fix it.
std::string write_semantically_broken_trace(const char* filename) {
  using cla::trace::Event;
  using cla::trace::EventType;
  cla::trace::Trace trace;
  trace.add(Event{0, cla::trace::kNoObject, cla::trace::kNoArg,
                  EventType::ThreadStart, 0, 0});
  trace.add(Event{5, 7, cla::trace::kNoArg, EventType::MutexReleased, 0, 0});
  trace.add(Event{9, cla::trace::kNoObject, cla::trace::kNoArg,
                  EventType::ThreadExit, 0, 0});
  const auto path =
      (std::filesystem::temp_directory_path() / filename).string();
  cla::trace::write_trace_file(trace, path);
  return path;
}

TEST(CliReportAndWhatif, StrictInputValidation) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_report.clat").string();
  int rc = 0;
  const std::string run_out = run_command(
      tool("cla-run") + " micro --threads 4 --trace-out " + path, rc);
  ASSERT_EQ(rc, 0) << run_out;
  const std::string analyze = tool("cla-analyze") + " " + path;

  // Trailing garbage after the percentage is a usage error, detected
  // before any analysis work: no report reaches stdout.
  std::string out = run_command(analyze + " '--whatif=L2=50junk%'", rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("invalid --whatif shrink"), std::string::npos);
  EXPECT_EQ(out.find("TYPE 1"), std::string::npos);

  // Out-of-range percentages are rejected.
  out = run_command(analyze + " '--whatif=L2=150%'", rc);
  EXPECT_EQ(rc, 2) << out;

  // An '=' inside the lock name is not an attempted percentage: the spec
  // names a (here unknown) lock and the run completes normally.
  out = run_command(analyze + " '--whatif=a=b'", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("what-if"), std::string::npos);

  // A well-formed percentage still works.
  out = run_command(analyze + " '--whatif=L2=50%'", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("what-if"), std::string::npos);

  // Unknown --report values and conflicting format flags are usage errors.
  out = run_command(analyze + " --report bogus", rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("invalid --report value"), std::string::npos);
  out = run_command(analyze + " --json --report csv", rc);
  EXPECT_EQ(rc, 2) << out;
  out = run_command(analyze + " --json --csv", rc);
  EXPECT_EQ(rc, 2) << out;

  // --report html emits one self-contained document with embedded JSON.
  out = run_command(analyze + " --report html", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.rfind("<!doctype html>", 0), 0u) << out.substr(0, 200);
  EXPECT_NE(out.find("id=\"cla-report\""), std::string::npos);
  EXPECT_NE(out.find("\"schema\": 2"), std::string::npos);

  // --report json matches --json byte for byte.
  int rc_alias = 0;
  const std::string via_report = run_command(analyze + " --report json", rc);
  const std::string via_flag = run_command(analyze + " --json", rc_alias);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(rc_alias, 0);
  EXPECT_EQ(via_report, via_flag);
  std::remove(path.c_str());
}

TEST(CliExitCodes, FullContract) {
  const auto clean_path =
      (std::filesystem::temp_directory_path() / "cla_cli_exit0.clat").string();
  int rc = 0;
  const std::string run_out = run_command(
      tool("cla-run") + " micro --threads 4 --trace-out " + clean_path, rc);
  ASSERT_EQ(rc, 0) << run_out;

  // 0: clean trace, default (strict) mode.
  run_command(tool("cla-analyze") + " " + clean_path, rc);
  EXPECT_EQ(rc, 0);

  // 1: runtime failure (corrupt header; not salvageable usage).
  const auto junk_path =
      (std::filesystem::temp_directory_path() / "cla_cli_junk.clat").string();
  std::ofstream(junk_path, std::ios::binary) << "this is not a trace";
  const std::string junk_out =
      run_command(tool("cla-analyze") + " " + junk_path, rc);
  EXPECT_EQ(rc, 1) << junk_out;  // a clean error message, no std::terminate
  EXPECT_NE(junk_out.find("cla-analyze:"), std::string::npos);
  EXPECT_EQ(junk_out.find("terminate"), std::string::npos) << junk_out;

  // 2: usage errors.
  run_command(tool("cla-analyze"), rc);
  EXPECT_EQ(rc, 2);
  const std::string bad_mode_out = run_command(
      tool("cla-analyze") + " " + clean_path + " --strictness=never", rc);
  EXPECT_EQ(rc, 2) << bad_mode_out;
  EXPECT_NE(bad_mode_out.find("invalid --strictness"), std::string::npos);
  run_command(tool("cla-analyze") + " " + clean_path + " --deadline-ms=-1", rc);
  EXPECT_EQ(rc, 2);
  run_command(tool("cla-analyze") + " " + clean_path + " --diagnostics=xml",
              rc);
  EXPECT_EQ(rc, 2);

  // 3: lossy repair (semantic damage + --strictness=repair).
  const auto broken_path =
      write_semantically_broken_trace("cla_cli_exit3.clat");
  const std::string repair_out = run_command(
      tool("cla-analyze") + " " + broken_path + " --strictness=repair", rc);
  EXPECT_EQ(rc, 3) << repair_out;
  EXPECT_NE(repair_out.find("--- trace health ---"), std::string::npos);
  EXPECT_NE(repair_out.find("results are approximate"), std::string::npos);

  // 4: resource limits.
  const std::string budget_out = run_command(
      tool("cla-analyze") + " " + clean_path + " --max-events=10", rc);
  EXPECT_EQ(rc, 4) << budget_out;
  EXPECT_NE(budget_out.find("CLA_E_EVENT_BUDGET_EXCEEDED"), std::string::npos);

  // 5: strict-mode validation failure.
  const std::string strict_out =
      run_command(tool("cla-analyze") + " " + broken_path, rc);
  EXPECT_EQ(rc, 5) << strict_out;
  EXPECT_NE(strict_out.find("validation failed"), std::string::npos);
  EXPECT_NE(strict_out.find("CLA_E_UNPAIRED_UNLOCK"), std::string::npos);

  // The contract is documented in --help.
  const std::string help_out =
      run_command(tool("cla-analyze") + " --help", rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(help_out.find("exit codes:"), std::string::npos);
  EXPECT_NE(help_out.find("5 strict-mode validation failure"),
            std::string::npos);

  std::remove(clean_path.c_str());
  std::remove(junk_path.c_str());
  std::remove(broken_path.c_str());
}

TEST(CliExitCodes, PhaseClipOfAValidTraceAnalyzes) {
  // T0 marks phase 0 over [10, 50]; T1 (1..5) lies wholly before it and
  // T2 (2..90) overlaps it. The trace validates, so its clip must too.
  using cla::trace::Event;
  using cla::trace::EventType;
  cla::trace::Trace trace;
  const auto add = [&](std::uint64_t ts, EventType type,
                       cla::trace::ThreadId tid) {
    trace.add(Event{ts, cla::trace::kNoObject, cla::trace::kNoArg, type, 0,
                    tid});
  };
  add(0, EventType::ThreadStart, 0);
  add(10, EventType::PhaseBegin, 0);
  add(50, EventType::PhaseEnd, 0);
  add(100, EventType::ThreadExit, 0);
  add(1, EventType::ThreadStart, 1);
  add(5, EventType::ThreadExit, 1);
  add(2, EventType::ThreadStart, 2);
  add(90, EventType::ThreadExit, 2);
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_phase_gap.clat")
          .string();
  cla::trace::write_trace_file(trace, path);
  int rc = 0;
  const std::string out =
      run_command(tool("cla-analyze") + " " + path + " --phase 0", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_EQ(out.find("CLA_E_EMPTY_THREAD"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliExitCodes, DiagnosticsJsonOnDamagedTrace) {
  const auto path = write_semantically_broken_trace("cla_cli_diagjson.clat");
  int rc = 0;
  const std::string out = run_command(
      tool("cla-analyze") + " " + path +
          " --strictness=repair --diagnostics=json",
      rc);
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(out.find("\"CLA_E_UNPAIRED_UNLOCK\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  std::remove(path.c_str());
}

TEST(CliVersion, RunPrintsToolAndMaxTraceVersion) {
  int rc = 0;
  const std::string out = run_command(tool("cla-run") + " --version", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("cla-run "), std::string::npos);
  EXPECT_NE(out.find("v3"), std::string::npos);  // max supported .clat
}

TEST(CliVersion, AnalyzePrintsToolAndMaxTraceVersion) {
  int rc = 0;
  const std::string out = run_command(tool("cla-analyze") + " --version", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("cla-analyze "), std::string::npos);
  EXPECT_NE(out.find("v3"), std::string::npos);
}

// Supervised execution: cla-run --exec forks the command under the
// interposer, enforces timeouts/retries, and salvage-analyzes the
// partial trace of a crashed or hung child.
class CliSupervise : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process name: ctest runs sibling tests concurrently.
    trace_path_ = (std::filesystem::temp_directory_path() /
                   ("cla_cli_supervise_" + std::to_string(::getpid()) +
                    ".clat"))
                      .string();
    std::remove(trace_path_.c_str());
  }
  void TearDown() override { std::remove(trace_path_.c_str()); }

  std::string supervise(const std::string& extra_flags,
                        const std::string& child_args, int& rc,
                        const std::string& env_prefix = "") const {
    return run_command(env_prefix + tool("cla-run") + " --trace " +
                           trace_path_ + " --preload " CLA_INTERPOSE_LIB " " +
                           extra_flags + " --exec " CLA_CRASH_APP " " +
                           child_args,
                       rc);
  }

  std::string trace_path_;
};

TEST_F(CliSupervise, CleanChildAnalyzesAndExitsZero) {
  int rc = 0;
  const std::string out = supervise("", "run", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("TYPE 1"), std::string::npos);
}

TEST_F(CliSupervise, CrashedChildIsSalvageAnalyzedWithExitThree) {
  int rc = 0;
  const std::string out = supervise("", "segv 40", rc);
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("killed by signal"), std::string::npos);
  EXPECT_NE(out.find("salvaging partial trace"), std::string::npos);
  EXPECT_NE(out.find("TYPE 1"), std::string::npos);  // the report made it out
}

TEST_F(CliSupervise, HungChildIsKilledRetriedThenSalvaged) {
  // Small stream buffers so the flusher has landed chunks before the
  // SIGKILL (a hung child gets no crash spill).
  int rc = 0;
  const std::string out = supervise(
      "--buffer-events 64 --timeout-ms 1500 --retries 1 --backoff-ms 50",
      "hang", rc);
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("timed out"), std::string::npos);
  EXPECT_NE(out.find("retrying in 50 ms"), std::string::npos);
  EXPECT_NE(out.find("salvaging partial trace"), std::string::npos);
}

TEST_F(CliSupervise, FaultInjectedChildReportsLossyNotCrash) {
  // Persistent disk-full inside the child's recorder: the child still
  // runs to completion, the trace stays loadable, and the supervisor
  // reports the loss with exit 3.
  int rc = 0;
  const std::string out = supervise(
      "", "run", rc,
      "CLA_FAULT_WRITE_ERRNO=ENOSPC CLA_FAULT_WRITE_AFTER_BYTES=4096 ");
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("TYPE 1"), std::string::npos);
}

TEST(CliSuperviseUsage, ExecWithoutCommandIsUsageError) {
  int rc = 0;
  const std::string out = run_command(tool("cla-run") + " --exec", rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("--exec requires a command"), std::string::npos);
}

TEST(CliExitCodes, MalformedInputNeverReachesTerminate) {
  // Satellite 1's contract: no user input may escape as an unhandled
  // exception. Feed a spread of malformed files through every mode; the
  // tool must always exit with a documented code (never a signal death,
  // never 134/139-style aborts).
  const auto path =
      (std::filesystem::temp_directory_path() / "cla_cli_malformed.clat")
          .string();
  const std::string payloads[] = {
      "",                                   // empty file
      "CLAT",                               // bare magic
      std::string("CLAT\x02\x00\x00\x00") + std::string(64, '\xff'),
      std::string(256, '\0'),               // zero block
  };
  for (const std::string& payload : payloads) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << payload;
    for (const char* flags :
         {"", " --salvage", " --strictness=repair", " --strictness=lenient",
          " --max-events=5", " --deadline-ms=1000"}) {
      int rc = 0;
      const std::string out =
          run_command(tool("cla-analyze") + " " + path + flags, rc);
      EXPECT_TRUE(rc >= 0 && rc <= 5)
          << "payload size " << payload.size() << " flags '" << flags
          << "' exited " << rc << ":\n"
          << out;
      EXPECT_EQ(out.find("terminate called"), std::string::npos) << out;
    }
  }
  std::remove(path.c_str());
}

}  // namespace

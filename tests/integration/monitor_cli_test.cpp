// cla-monitor CLI tests, ending in the always-on survival demo: a
// ring-capped writer under injected ENOSPC faults is tailed live by the
// monitor (itself under injected EIO/short-read faults), rotated by ring
// compactions, and finally SIGKILLed. The monitor must stay up through
// every fault, keep serving valid rankings, bound the on-disk trace, and
// exit 3 (counted loss) — never crash.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/faultinject.hpp"

namespace {

using cla::trace::ChunkedTraceWriter;
using cla::trace::Event;
using cla::trace::EventType;

constexpr std::uint64_t kLockA = 0x1000;
constexpr std::uint64_t kLockB = 0x2000;

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
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : status;
  return output;
}

std::string tool(const char* name) {
  return (std::filesystem::path(CLA_TOOLS_DIR) / name).string();
}

std::string temp_path(const char* tag) {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("cla_moncli_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++)))
      .string();
}

/// One contended-looking batch: per-batch monotonic timestamps, lock B
/// held 4x longer than lock A so the ranking has a stable #1.
std::vector<Event> lock_batch(int batch, std::size_t pairs) {
  std::vector<Event> events;
  std::uint64_t ts = 1'000'000ull * (batch + 1);
  const auto add = [&](EventType type, std::uint64_t object,
                       std::uint64_t arg) {
    events.push_back(Event{ts++, object, arg, type, 0, /*tid=*/0});
  };
  if (batch == 0) {
    add(EventType::ThreadStart, cla::trace::kNoObject, cla::trace::kNoArg);
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::uint64_t lock = (i % 3 == 0) ? kLockB : kLockA;
    add(EventType::MutexAcquire, lock, cla::trace::kNoArg);
    add(EventType::MutexAcquired, lock, 0);
    ts += (lock == kLockB) ? 40 : 10;
    add(EventType::MutexReleased, lock, cla::trace::kNoArg);
  }
  return events;
}

TEST(MonitorCli, HelpAndVersion) {
  int rc = 0;
  std::string out = run_command(tool("cla-monitor") + " --help", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("--exit-on-idle-ms"), std::string::npos);
  EXPECT_NE(out.find("exit: 0 clean"), std::string::npos);
  out = run_command(tool("cla-monitor") + " --version", rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("cla-monitor"), std::string::npos);
}

TEST(MonitorCli, UsageErrorsExitTwo) {
  int rc = 0;
  std::string out = run_command(tool("cla-monitor"), rc);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos);
  out = run_command(tool("cla-monitor") + " t.clat --interval-ms -5", rc);
  EXPECT_EQ(rc, 2) << out;
}

TEST(MonitorCli, CleanTraceReportsRankingAndExitsZero) {
  const std::string path = temp_path("clean") + ".clat";
  const std::string json_path = temp_path("clean_out") + ".json";
  {
    ChunkedTraceWriter writer(path, cla::trace::kTraceVersionV3);
    writer.write_object_name(kLockB, "hot_lock");
    const std::vector<Event> batch = lock_batch(0, 50);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    writer.write_meta(0, /*clean_close=*/true);
    writer.close();
  }
  int rc = 0;
  const std::string out = run_command(
      tool("cla-monitor") + " " + path + " --json-out " + json_path, rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"hot_lock\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"writer_finished\":true"), std::string::npos) << out;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::string file_json((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(file_json.find("\"cp_hold_time_ns\""), std::string::npos);
  std::remove(path.c_str());
  std::remove(json_path.c_str());
}

TEST(MonitorCli, ServesRankingOverUnixSocket) {
  const std::string path = temp_path("sock") + ".clat";
  const std::string sock = temp_path("sock") + ".s";
  {
    ChunkedTraceWriter writer(path, cla::trace::kTraceVersion);
    writer.write_object_name(kLockB, "hot_lock");
    const std::vector<Event> batch = lock_batch(0, 50);
    ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()),
              batch.size());
    // No clean close: the monitor keeps serving until the idle timeout,
    // which leaves a window for the client below to connect.
    writer.close();
  }
  int rc = 0;
  const std::string launch =
      tool("cla-monitor") + " " + path + " --socket " + sock +
      " --interval-ms 50 --exit-on-idle-ms 4000 >/dev/null 2>&1 & echo $!";
  const std::string pid_out = run_command("sh -c '" + launch + "'", rc);
  ASSERT_EQ(rc, 0);
  const pid_t monitor_pid = static_cast<pid_t>(std::stol(pid_out));
  ASSERT_GT(monitor_pid, 0);

  // Connect (with retries while the daemon boots and runs its first
  // analysis refresh — early connections legitimately see the empty
  // placeholder document) and read until the ranking shows up.
  std::string json;
  for (int attempt = 0;
       attempt < 100 && json.find("\"hot_lock\"") == std::string::npos;
       ++attempt) {
    json.clear();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      char buf[4096];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof buf)) > 0) json.append(buf, n);
    }
    ::close(fd);
    if (json.find("\"hot_lock\"") == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hot_lock\""), std::string::npos) << json;

  ::kill(monitor_pid, SIGTERM);
  for (int i = 0; i < 100 && ::kill(monitor_pid, 0) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_NE(::kill(monitor_pid, 0), 0) << "monitor did not exit on SIGTERM";
  std::remove(path.c_str());
  std::remove(sock.c_str());
}

// The acceptance demo from the always-on issue: 4 MB ring cap, live
// monitor, ENOSPC on the writer, EIO + short reads on the monitor, ring
// rotations, and a SIGKILL'd writer. The monitor must survive it all and
// report the loss, not crash on it.
TEST(MonitorCli, SurvivalDemoRideThroughFaultsAndSigkill) {
  const std::string path = temp_path("survival") + ".clat";
  const std::string json_path = temp_path("survival_out") + ".json";
  const std::uint64_t kRing = 4ull * 1024 * 1024;

  const pid_t writer_pid = ::fork();
  ASSERT_GE(writer_pid, 0);
  if (writer_pid == 0) {
    // Writer child: ring-capped recording under occasional ENOSPC, then
    // an uncatchable death with no clean close.
    ::setenv("CLA_FAULT_WRITE_ERRNO", "ENOSPC", 1);
    ::setenv("CLA_FAULT_WRITE_EVERY", "101", 1);
    ::setenv("CLA_FAULT_WRITE_COUNT", "3", 1);
    cla::util::fault::reinit_for_tests();
    {
      ChunkedTraceWriter writer(path, cla::trace::kTraceVersion, kRing);
      writer.write_object_name(kLockA, "cold_lock");
      writer.write_object_name(kLockB, "hot_lock");
      for (int b = 0; b < 700; ++b) {
        const std::vector<Event> events = lock_batch(b, 170);
        writer.write_events(0, events.data(), events.size());
        if ((b & 15) == 0) {
          // Periodic in-place refresh, exactly like the recorder: counted
          // loss becomes visible to the tailer without a clean close.
          writer.write_meta(writer.ring_retired_events(), false);
          ::usleep(2000);
        }
      }
      writer.write_meta(writer.ring_retired_events(), false);
      ::usleep(200'000);  // let the monitor catch up to the final state
      ::raise(SIGKILL);   // writer dies holding its locks, mid-recording
    }
    ::_exit(0);  // unreachable
  }

  // Start tailing as soon as the writer's preamble exists, under injected
  // read faults, until the SIGKILL goes quiet. Polling instead of a fixed
  // head start: the monitor must be attached before the ring starts
  // retiring chunks (about a third into the run), or it never sees a
  // rotation — and how soon that is depends on how fast the writer runs.
  for (int i = 0; i < 2000; ++i) {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) > 0 && !ec) break;
    ::usleep(1000);
  }
  int rc = 0;
  const std::string out = run_command(
      "env CLA_FAULT_READ_ERRNO=EIO CLA_FAULT_READ_EVERY=13"
      " CLA_FAULT_SHORT_READ=4096 " +
          tool("cla-monitor") + " " + path +
          " --interval-ms 50 --exit-on-idle-ms 1500 --top 3 --json-out " +
          json_path,
      rc);

  int status = 0;
  ASSERT_EQ(::waitpid(writer_pid, &status, 0), writer_pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Exit 3: finished, but with counted loss (ring rotations at minimum).
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("\"schema\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("CLA_W_TRACE_ROTATED"), std::string::npos) << out;
  EXPECT_NE(out.find("\"hot_lock\""), std::string::npos) << out;
  EXPECT_EQ(out.find("\"locks\":[]"), std::string::npos) << out;

  // The ring bound held on disk despite the writer's uncatchable death.
  EXPECT_LE(std::filesystem::file_size(path), kRing + 64 * 1024);

  // The final document landed in --json-out too, and it is the same
  // complete report the monitor printed.
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::string file_json((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(file_json.find("\"rotations\":"), std::string::npos);
  EXPECT_NE(file_json.find("\"cp_hold_time_ns\""), std::string::npos);

  std::remove(path.c_str());
  std::remove(json_path.c_str());
}

}  // namespace

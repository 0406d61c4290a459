// record-taskq: the paper's recording-overhead question (§IV.A) on the
// path real users take. The plain-pthread target (target/taskq_target.c)
// runs in alternating pairs: as is, and under the LD_PRELOAD recorder
// with a v3 trace and the default buffer and stack depth. Each recorded
// trace must load under strict validation, hold no dropped events, and
// show exactly the per-lock acquisition counts the target counted itself.
//
// The traced run adds in-process probes of the recorder hot path, with
// the target's lock mix: clock read, Recorder::record() in streaming v3
// mode, an uncontended InstrumentedMutex round trip, and one flush-sized
// ChunkedTraceWriter::write_events block.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "cla/runtime/hooks.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/diagnostics.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using cla::trace::EventType;
using cla::trace::ObjectId;

/// One finished child process, as wait4() saw it.
struct ChildRun {
  double wall_ns = 0;
  double cpu_ns = 0;        ///< user + system
  double ctx_switches = 0;  ///< voluntary + involuntary
  double maxrss_mb = 0;
  bool ok = false;          ///< exited 0
};

double timeval_ns(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
}

/// The benchmark's own environment minus anything that would change how
/// the target is recorded, plus `extra`.
std::vector<std::string> child_env(const std::vector<std::string>& extra) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    if (var.rfind("LD_PRELOAD=", 0) == 0 || var.rfind("CLA_", 0) == 0) continue;
    env.emplace_back(var);
  }
  env.insert(env.end(), extra.begin(), extra.end());
  return env;
}

/// Spawns `argv` with `env`, stdout and stderr to `log`, and waits for it.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env, const fs::path& log) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> envp;
  for (const auto& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);

  ChildRun run;
  const auto start = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return run;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return run;
  }
  run.wall_ns = ns_since(start);
  run.cpu_ns = timeval_ns(usage.ru_utime) + timeval_ns(usage.ru_stime);
  run.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  run.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return run;
}

/// The target's own account of one run: acquisitions per mutex address.
struct TargetCounts {
  std::vector<std::pair<ObjectId, std::uint64_t>> locks;
  std::uint64_t checksum = 0;
  bool ok = false;
};

TargetCounts read_counts(const fs::path& path) {
  TargetCounts counts;
  std::ifstream in(path);
  std::string word;
  while (in >> word) {
    if (word == "lock") {
      ObjectId address = 0;
      std::uint64_t n = 0;
      in >> address >> n;
      counts.locks.emplace_back(address, n);
    } else if (word == "checksum") {
      in >> counts.checksum;
      counts.ok = static_cast<bool>(in);
    }
  }
  return counts;
}

/// What one recorded trace held, and whether it matched the target.
struct TraceCheck {
  bool ok = false;
  std::string why;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t missing = 0;  ///< |recorded - counted| acquisitions
  std::uint64_t io_retries = 0;
  std::uint64_t file_bytes = 0;
};

TraceCheck check_trace(const fs::path& trace_path, const TargetCounts& expected,
                       Tracer& tracer, std::unique_ptr<cla::trace::MappedTrace>& keep) {
  TraceCheck check;
  try {
    {
      ScopedSpan span(tracer, "trace.load");
      keep = std::make_unique<cla::trace::MappedTrace>(trace_path.string());
    }
    const cla::trace::TraceView& view = keep->view();
    check.file_bytes = keep->file_bytes();
    check.events = view.event_count();
    check.dropped = view.dropped_events();
    const auto& warnings = view.runtime_warnings();
    const auto retried = warnings.find(
        static_cast<std::uint32_t>(cla::util::DiagCode::CLA_W_IO_RETRIED));
    if (retried != warnings.end()) check.io_retries = retried->second;

    bool valid = false;
    cla::util::DiagnosticSink sink;
    {
      ScopedSpan span(tracer, "trace.validate");
      valid = cla::trace::validate_trace(view, sink);
    }
    std::map<ObjectId, std::uint64_t> acquired;
    for (std::size_t tid = 0; tid < view.thread_count(); ++tid) {
      const auto& events = view.thread_events(static_cast<cla::trace::ThreadId>(tid));
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (events.type_at(i) == EventType::MutexAcquired) ++acquired[events.object_at(i)];
      }
    }
    for (const auto& [address, count] : expected.locks) {
      const std::uint64_t got = acquired[address];
      check.missing += got > count ? got - count : count - got;
    }
    if (check.dropped != 0) {
      check.why = std::to_string(check.dropped) + " dropped events";
    } else if (!valid) {
      check.why = "strict validation failed: " +
                  (sink.diagnostics().empty() ? std::string("(no detail)")
                                              : sink.diagnostics().front().to_string());
    } else if (check.missing != 0) {
      check.why = "per-lock acquisition counts differ from the target's by " +
                  std::to_string(check.missing);
    } else {
      check.ok = true;
    }
  } catch (const std::exception& e) {
    check.why = std::string("trace unreadable: ") + e.what();
  }
  return check;
}

// ---- in-process probes of the recorder hot path (traced run only) ----

/// ns per call of `body(i)` over `n` calls, median of five repetitions.
template <typename Fn>
double probe_ns(std::uint64_t n, Fn&& body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) body(i);
    reps.push_back(ns_since(start) / static_cast<double>(n));
  }
  return median(std::move(reps));
}

void run_probes(const Config& config, const cla::trace::TraceView* sample,
                Tracer& tracer, Result& result) {
  const bool tiny = config.size == Size::Tiny;
  const std::uint64_t n = tiny ? 20'000 : 400'000;

  {
    ScopedSpan span(tracer, "util.now_ns");
    std::uint64_t sink = 0;
    result.per_layer["util.now_ns"] =
        probe_ns(n, [&](std::uint64_t) { sink += cla::util::now_ns(); });
    if (sink == 42) std::puts("");  // keep the reads observable
  }

  // The process recorder, streaming v3 with the interposer's default
  // buffer, exactly as the LD_PRELOAD library configures it.
  cla::rt::Recorder& recorder = cla::rt::Recorder::instance();
  recorder.start_streaming((config.work_dir / "probe.clat").string(), 16384,
                           cla::trace::kTraceVersionV3);
  recorder.ensure_current_thread();
  {
    ScopedSpan span(tracer, "runtime.record");
    result.per_layer["runtime.record_ns"] = probe_ns(n, [&](std::uint64_t i) {
      recorder.record(EventType::MutexAcquire, 0x1000 + (i & 15));
    });
  }
  {
    // The target's lock mix, uncontended: queue, one of 16 stripes, and
    // every 16th iteration the best-result lock.
    cla::rt::InstrumentedMutex queue("queue");
    cla::rt::InstrumentedMutex best("best");
    std::vector<std::unique_ptr<cla::rt::InstrumentedMutex>> stripes;
    for (int i = 0; i < 16; ++i) {
      stripes.push_back(std::make_unique<cla::rt::InstrumentedMutex>());
    }
    ScopedSpan span(tracer, "runtime.mutex_roundtrip");
    std::uint64_t pairs = 0;
    const double per_iteration = probe_ns(n / 4, [&](std::uint64_t i) {
      queue.lock();
      queue.unlock();
      stripes[i & 15]->lock();
      stripes[i & 15]->unlock();
      pairs += 2;
      if ((i & 15) == 15) {
        best.lock();
        best.unlock();
        ++pairs;
      }
    });
    const double pairs_per_iteration =
        static_cast<double>(pairs) / static_cast<double>(5 * (n / 4));
    result.per_layer["runtime.mutex_roundtrip_ns"] =
        per_iteration / pairs_per_iteration;
  }
  recorder.finish_streaming();

  // One flush-sized block of real recorded events, as the flusher writes it.
  if (sample != nullptr && sample->thread_count() > 0) {
    cla::trace::ThreadId longest = 0;
    for (std::size_t t = 0; t < sample->thread_count(); ++t) {
      const auto tid = static_cast<cla::trace::ThreadId>(t);
      if (sample->thread_events(tid).size() > sample->thread_events(longest).size()) {
        longest = tid;
      }
    }
    const auto& events = sample->thread_events(longest);
    std::vector<cla::trace::Event> block;
    for (std::size_t i = 0; i < events.size() && block.size() < 16384; ++i) {
      block.push_back(events[i]);
    }
    cla::trace::ChunkedTraceWriter writer(
        (config.work_dir / "write_probe.clat").string(),
        cla::trace::kTraceVersionV3);
    ScopedSpan span(tracer, "trace.write_events");
    std::vector<double> per_event;
    for (int r = 0; r < (tiny ? 4 : 64); ++r) {
      const auto start = Clock::now();
      writer.write_events(longest, block.data(), block.size());
      per_event.push_back(ns_since(start) / static_cast<double>(block.size()));
    }
    writer.close();
    result.per_layer["trace.write_ns_per_event"] = median(std::move(per_event));
  }
}

}  // namespace

Result run_record_taskq(const Config& config, Tracer& tracer) {
  Result result;
  const std::uint64_t tasks = config.size == Size::Tiny ? 500 : 10'000;
  const fs::path trace_path = config.work_dir / "recorded.clat";
  const fs::path plain_counts = config.work_dir / "plain.counts";
  const fs::path recorded_counts = config.work_dir / "recorded.counts";
  const fs::path log = config.work_dir / "target.log";
  const std::string seed = std::to_string(config.seed);
  const std::vector<std::string> plain_argv = {PERFBENCH_TARGET, seed,
                                               std::to_string(tasks),
                                               plain_counts.string()};
  std::vector<std::string> recorded_argv = plain_argv;
  recorded_argv.back() = recorded_counts.string();
  const std::vector<std::string> plain_env = child_env({});
  const std::vector<std::string> recorded_env =
      child_env({std::string("LD_PRELOAD=") + PERFBENCH_INTERPOSE,
                 "CLA_TRACE_FILE=" + trace_path.string(), "CLA_TRACE_FORMAT=v3"});

  std::unique_ptr<cla::trace::MappedTrace> last_trace;
  std::vector<double> recorded_wall, plain_wall, cpu_delta, ctx_delta, maxrss,
      events, bytes_per_event;
  std::uint64_t dropped = 0, missing = 0, io_retries = 0;

  // One pair: both runs, then the checks. Returns false on any failure.
  auto pair = [&](std::uint64_t index, bool sample) {
    tracer.set_run(static_cast<std::uint32_t>(index));
    last_trace.reset();  // its file is about to be rewritten
    ChildRun plain, recorded;
    auto run_plain = [&] {
      ScopedSpan span(tracer, "target.plain_run");
      plain = run_child(plain_argv, plain_env, log);
    };
    auto run_recorded = [&] {
      ScopedSpan span(tracer, "runtime.recorded_run");
      recorded = run_child(recorded_argv, recorded_env, log);
    };
    if (index % 2 == 0) {
      run_plain();
      run_recorded();
    } else {
      run_recorded();
      run_plain();
    }
    // The recorded run's own counters are the reference for its trace
    // (lock addresses differ between runs); the plain run's checksum
    // proves recording did not change what the program computed.
    const TargetCounts plain_view = read_counts(plain_counts);
    TargetCounts counted = read_counts(recorded_counts);
    if (config.breakage == Breakage::LockCount && !counted.locks.empty()) {
      ++counted.locks.front().second;
    }
    std::string why;
    TraceCheck check;
    if (!plain.ok || !recorded.ok || !plain_view.ok || !counted.ok) {
      why = "target run failed (see " + log.string() + ")";
    } else if (counted.checksum != plain_view.checksum) {
      why = "recorded run computed a different checksum";
    } else {
      check = check_trace(trace_path, counted, tracer, last_trace);
      why = check.why;
    }
    if (sample && check.ok) {
      recorded_wall.push_back(recorded.wall_ns);
      plain_wall.push_back(plain.wall_ns);
      cpu_delta.push_back(recorded.cpu_ns - plain.cpu_ns);
      ctx_delta.push_back(recorded.ctx_switches - plain.ctx_switches);
      maxrss.push_back(recorded.maxrss_mb);
      events.push_back(static_cast<double>(check.events));
      bytes_per_event.push_back(static_cast<double>(check.file_bytes) /
                                static_cast<double>(check.events));
    }
    dropped += check.dropped;
    missing += check.missing;
    io_retries += check.io_retries;
    if (!check.ok && result.notes.size() < 5) {
      result.notes.push_back("record-taskq pair " + std::to_string(index) + ": " + why);
    }
    return check.ok;
  };

  const double setup_s = timed_setup([&] {
    fs::remove(trace_path);
    pair(0, false);  // warm the page cache and prove the pipeline works
  });
  dropped = missing = io_retries = 0;

  {
    ScopedSpan measure(tracer, "bench.measure");
    const auto start = Clock::now();
    for (std::uint64_t i = 0; keep_measuring(start, config.seconds, recorded_wall.size()); ++i) {
      ++result.attempted;
      if (!pair(i, true)) ++result.failed;
    }
  }
  if (tracer.enabled()) {
    run_probes(config, last_trace ? &last_trace->view() : nullptr, tracer, result);
  }

  // The plain run of the same program is the reference: the relative
  // latency is the recording slowdown of paper §IV.A.
  report_latency(recorded_wall, plain_wall, result);
  const double events_per_run = median(events);
  const double wall_p50 = median(recorded_wall);
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = setup_s;
  e2e["peak_rss_mb"] = median(maxrss);
  e2e["trace_bytes_per_event"] = median(bytes_per_event);

  auto& layer = result.per_layer;
  layer["bench.mev_per_s"] = wall_p50 > 0 ? events_per_run / wall_p50 * 1e3 : 0;
  layer["runtime.cpu_ns_per_event"] =
      events_per_run > 0 ? median(cpu_delta) / events_per_run : 0;
  layer["runtime.ctx_switches_per_kevent"] =
      events_per_run > 0 ? median(ctx_delta) / events_per_run * 1000 : 0;
  layer["runtime.events"] = events_per_run;
  layer["runtime.dropped"] = static_cast<double>(dropped);
  layer["runtime.missing"] = static_cast<double>(missing);
  layer["runtime.io_retries"] = static_cast<double>(io_retries);
  layer["trace.load_ns"] = median(tracer.durations_ns("trace.load"));

  char line[256];
  std::snprintf(line, sizeof line,
                "record-taskq: %zu pairs, %.0f events/run, recorded %.2f ms "
                "(p90 %.2f), slowdown x%.3f",
                recorded_wall.size(), events_per_run, wall_p50 / 1e6,
                percentile(recorded_wall, 90) / 1e6,
                result.end_to_end["relative_latency_p50"]);
  result.notes.push_back(line);
  return result;
}

}  // namespace perfbench

#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>

#include "cla/exec/backend.hpp"
#include "cla/runtime/hooks.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/error.hpp"

namespace cla::exec {

namespace {

// Events per thread for the recording ring (2 x 16-byte slots each, so
// 8 MiB, faulted in only as far as a thread records). The busiest worker
// of a default-scale run (radiosity) records up to ~350k events, so a
// whole run fits even when the flusher gets no core until the end.
constexpr std::size_t kRingEvents = std::size_t{1} << 18;

// Creates an empty file of a fresh name in the temp directory.
std::string make_temp_trace() {
  std::string path =
      (std::filesystem::temp_directory_path() / "cla_pthread_XXXXXX.clat")
          .string();
  const int fd = ::mkstemps(path.data(), 5);
  CLA_CHECK(fd >= 0, "cannot create a trace file in the temp directory: " +
                         std::string(std::strerror(errno)));
  ::close(fd);
  return path;
}

/// Backend over real POSIX threads with Fig. 4 instrumentation. It
/// records like the LD_PRELOAD interposer does: one session of the
/// process-wide recorder streams to a temp file, which run() loads back
/// through the strict loader and deletes.
///
/// compute(units) busy-spins for units * compute_unit_ns so CPU time maps
/// linearly onto the workload's abstract work units.
class PthreadBackend final : public Backend {
 public:
  explicit PthreadBackend(std::uint64_t compute_unit_ns)
      : compute_unit_ns_(compute_unit_ns), trace_path_(make_temp_trace()) {
    // Open before the first primitive is named: names reach the trace
    // only while a session is open.
    rt::Recorder& recorder = rt::Recorder::instance();
    try {
      recorder.start_streaming(trace_path_, kRingEvents);
    } catch (...) {
      ::unlink(trace_path_.c_str());
      throw;
    }
    recorder.ensure_current_thread();
  }

  ~PthreadBackend() override {
    if (trace_path_.empty()) return;  // run() closed the session
    rt::Recorder::instance().finish_streaming();
    ::unlink(trace_path_.c_str());
  }

  MutexHandle create_mutex(std::string name) override {
    mutexes_.emplace_back(std::move(name));
    return MutexHandle{static_cast<std::uint32_t>(mutexes_.size() - 1)};
  }

  BarrierHandle create_barrier(std::string name, std::uint32_t count) override {
    barriers_.emplace_back(count, std::move(name));
    return BarrierHandle{static_cast<std::uint32_t>(barriers_.size() - 1)};
  }

  CondHandle create_cond(std::string name) override {
    conds_.emplace_back(std::move(name));
    return CondHandle{static_cast<std::uint32_t>(conds_.size() - 1)};
  }

  void run(std::uint32_t thread_count,
           const std::function<void(Ctx&)>& body) override;

  std::uint64_t completion_time() const override { return completion_time_; }

  trace::Trace take_trace() override { return std::move(trace_); }

 private:
  friend class PthreadCtx;
  std::uint64_t compute_unit_ns_;
  std::string trace_path_;  // the open session's file; empty once run
  // deques: stable addresses, required because object ids are addresses.
  std::deque<rt::InstrumentedMutex> mutexes_;
  std::deque<rt::InstrumentedBarrier> barriers_;
  std::deque<rt::InstrumentedCond> conds_;
  trace::Trace trace_;
  std::uint64_t completion_time_ = 0;
};

class PthreadCtx final : public Ctx {
 public:
  PthreadCtx(PthreadBackend& backend, std::uint32_t index)
      : backend_(&backend), index_(index) {}

  void compute(std::uint64_t units) override {
    util::spin_for_ns(units * backend_->compute_unit_ns_);
  }
  void lock(MutexHandle mutex) override {
    backend_->mutexes_.at(mutex.index).lock();
  }
  void unlock(MutexHandle mutex) override {
    backend_->mutexes_.at(mutex.index).unlock();
  }
  void barrier_wait(BarrierHandle barrier) override {
    backend_->barriers_.at(barrier.index).wait();
  }
  void cond_wait(CondHandle cond, MutexHandle mutex) override {
    backend_->conds_.at(cond.index).wait(backend_->mutexes_.at(mutex.index));
  }
  void cond_signal(CondHandle cond) override {
    backend_->conds_.at(cond.index).signal();
  }
  void cond_broadcast(CondHandle cond) override {
    backend_->conds_.at(cond.index).broadcast();
  }
  void phase_begin() override { rt::phase_begin(); }
  void phase_end() override { rt::phase_end(); }
  std::uint32_t worker_index() const override { return index_; }

 private:
  PthreadBackend* backend_;
  std::uint32_t index_;
};

void PthreadBackend::run(std::uint32_t thread_count,
                         const std::function<void(Ctx&)>& body) {
  CLA_CHECK(thread_count > 0, "need at least one worker thread");
  CLA_CHECK(!trace_path_.empty(), "a pthread backend runs once");
  rt::run_instrumented_threads(thread_count, [this, &body](std::uint32_t i) {
    PthreadCtx ctx(*this, i);
    body(ctx);
  });
  rt::Recorder& recorder = rt::Recorder::instance();
  recorder.thread_exit();
  recorder.finish_streaming();
  trace_ = trace::read_trace_file(trace_path_);
  ::unlink(trace_path_.c_str());
  trace_path_.clear();
  completion_time_ = trace_.end_ts() - trace_.start_ts();
}

}  // namespace

std::unique_ptr<Backend> make_pthread_backend(std::uint64_t compute_unit_ns) {
  return std::make_unique<PthreadBackend>(compute_unit_ns);
}

std::unique_ptr<Backend> make_backend(const std::string& name) {
  if (name == "sim") return make_sim_backend();
  if (name == "pthread") return make_pthread_backend();
  CLA_CHECK(false, "unknown backend '" + name + "' (expected sim|pthread)");
  return nullptr;  // unreachable
}

}  // namespace cla::exec

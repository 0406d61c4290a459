// Instrumented pthread-style synchronization wrappers (paper Fig. 4).
//
// These implement the exact MAGIC() placement the paper describes:
//   - lock: read the clock ("acquire"), then try-lock; if it succeeds,
//     record "acquire" and "obtain" (uncontended) as one record at that
//     time; on EBUSY fall back to the blocking lock and record "acquire"
//     at that time plus "obtain" with the contended flag;
//   - unlock: record "release" AFTER the real unlock so instrumentation
//     never extends the critical section;
//   - barrier: record arrival BEFORE the wait (the arrival time is what
//     the analysis needs), record leave after;
//   - condvar: record around wait/signal so the analyzer can match the
//     waking signal.
//
// Used directly by the pthread execution backend and examples that link
// CLA in-process; the LD_PRELOAD interposer reimplements the same
// protocol against the real libpthread symbols.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "cla/runtime/recorder.hpp"

namespace cla::rt {

/// Object id of an in-process synchronization object: its address.
inline trace::ObjectId object_id(const void* address) noexcept {
  return reinterpret_cast<trace::ObjectId>(address);
}

/// A pthread mutex with Fig. 4 instrumentation.
class InstrumentedMutex {
 public:
  explicit InstrumentedMutex(std::string name = {});
  ~InstrumentedMutex();

  InstrumentedMutex(const InstrumentedMutex&) = delete;
  InstrumentedMutex& operator=(const InstrumentedMutex&) = delete;

  void lock();
  void unlock();

  trace::ObjectId id() const noexcept { return object_id(&mutex_); }
  pthread_mutex_t* native() noexcept { return &mutex_; }

 private:
  pthread_mutex_t mutex_;
};

/// A pthread barrier with arrival/leave instrumentation and episode
/// numbering (generation = completed waits / participants).
class InstrumentedBarrier {
 public:
  InstrumentedBarrier(std::uint32_t participants, std::string name = {});
  ~InstrumentedBarrier();

  InstrumentedBarrier(const InstrumentedBarrier&) = delete;
  InstrumentedBarrier& operator=(const InstrumentedBarrier&) = delete;

  void wait();

  trace::ObjectId id() const noexcept { return object_id(&barrier_); }

 private:
  pthread_barrier_t barrier_;
  std::uint32_t participants_;
  std::atomic<std::uint64_t> arrivals_{0};
};

/// A pthread condition variable with wait/signal instrumentation.
class InstrumentedCond {
 public:
  explicit InstrumentedCond(std::string name = {});
  ~InstrumentedCond();

  InstrumentedCond(const InstrumentedCond&) = delete;
  InstrumentedCond& operator=(const InstrumentedCond&) = delete;

  void wait(InstrumentedMutex& mutex);
  void signal();
  void broadcast();

  trace::ObjectId id() const noexcept { return object_id(&cond_); }

 private:
  pthread_cond_t cond_;
};

/// Phase markers for the calling thread: delimit the region of interest
/// (e.g. an application's parallel phase) so the analysis can be clipped
/// to it with cla::trace::clip_to_phase().
void phase_begin();
void phase_end();

/// Runs `body` on `thread_count` instrumented pthreads: the calling thread
/// becomes the coordinator (records creates/joins), each worker records
/// start/exit. `body(worker_index)` is the worker function.
void run_instrumented_threads(std::uint32_t thread_count,
                              const std::function<void(std::uint32_t)>& body);

}  // namespace cla::rt

#include "cla/runtime/hooks.hpp"

#include <cerrno>
#include <thread>
#include <vector>

#include "cla/util/clock.hpp"
#include "cla/util/error.hpp"

namespace cla::rt {

using trace::EventType;

InstrumentedMutex::InstrumentedMutex(std::string name) {
  pthread_mutex_init(&mutex_, nullptr);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedMutex::~InstrumentedMutex() { pthread_mutex_destroy(&mutex_); }

void InstrumentedMutex::lock() {
  Recorder& recorder = Recorder::instance();
  // MAGIC: acquire the lock — one clock read, before the try-lock, so it
  // never lengthens the critical section.
  const std::uint64_t arrival = util::ticks();
  if (pthread_mutex_trylock(&mutex_) != EBUSY) {
    // MAGIC: obtain the lock, uncontended — one record with the acquire.
    recorder.record_acquired_at(arrival, id());
    return;
  }
  // MAGIC: lock contention
  const int rc = pthread_mutex_lock(&mutex_);
  CLA_CHECK(rc == 0, "pthread_mutex_lock failed");
  recorder.record_at(EventType::MutexAcquire, arrival, id());
  recorder.record(EventType::MutexAcquired, id(), 1);  // MAGIC: obtain the lock
}

void InstrumentedMutex::unlock() {
  const int rc = pthread_mutex_unlock(&mutex_);
  CLA_CHECK(rc == 0, "pthread_mutex_unlock failed");
  // MAGIC after the real unlock: no extra time inside the critical section.
  Recorder::instance().record(EventType::MutexReleased, id());
}

InstrumentedBarrier::InstrumentedBarrier(std::uint32_t participants,
                                         std::string name)
    : participants_(participants) {
  CLA_CHECK(participants > 0, "barrier needs at least one participant");
  pthread_barrier_init(&barrier_, nullptr, participants);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedBarrier::~InstrumentedBarrier() { pthread_barrier_destroy(&barrier_); }

void InstrumentedBarrier::wait() {
  Recorder& recorder = Recorder::instance();
  const std::uint64_t order = arrivals_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t episode = order / participants_;
  // MAGIC before the wait: the arrival time identifies the last arriver.
  recorder.record(EventType::BarrierArrive, id(), episode);
  pthread_barrier_wait(&barrier_);
  recorder.record(EventType::BarrierLeave, id(), episode);
}

InstrumentedCond::InstrumentedCond(std::string name) {
  pthread_cond_init(&cond_, nullptr);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedCond::~InstrumentedCond() { pthread_cond_destroy(&cond_); }

void InstrumentedCond::wait(InstrumentedMutex& mutex) {
  Recorder& recorder = Recorder::instance();
  // cond_wait atomically releases the mutex; trace that release so lock
  // hold times stay correct. Release and wait start are one instant.
  const std::uint64_t begin = util::ticks();
  recorder.record_at(EventType::MutexReleased, begin, mutex.id());
  recorder.record_at(EventType::CondWaitBegin, begin, id(), mutex.id());
  pthread_cond_wait(&cond_, mutex.native());
  // MAGIC: signal received (paper Fig. 4, "woken up by signal"), and the
  // mutex re-acquired at the same instant. The re-acquire may well have
  // contended, but pthread_cond_wait hides it; record it uncontended so
  // the analyzer does not invent a block.
  const std::uint64_t end = util::ticks();
  recorder.record_at(EventType::CondWaitEnd, end, id(), mutex.id());
  recorder.record_acquired_at(end, mutex.id());
}

void InstrumentedCond::signal() {
  // MAGIC before: "signal sent already" must be visible to the waiter's
  // wake-up matching, so timestamp the signal no later than the wake.
  Recorder::instance().record(EventType::CondSignal, id());
  pthread_cond_signal(&cond_);
}

void InstrumentedCond::broadcast() {
  Recorder::instance().record(EventType::CondBroadcast, id());
  pthread_cond_broadcast(&cond_);
}

void phase_begin() {
  Recorder::instance().record(EventType::PhaseBegin, trace::kNoObject);
}

void phase_end() {
  Recorder::instance().record(EventType::PhaseEnd, trace::kNoObject);
}

void run_instrumented_threads(std::uint32_t thread_count,
                              const std::function<void(std::uint32_t)>& body) {
  Recorder& recorder = Recorder::instance();
  const trace::ThreadId parent = recorder.ensure_current_thread();

  struct Worker {
    trace::ThreadId tid;
    std::thread thread;
  };
  std::vector<Worker> workers;
  workers.reserve(thread_count);
  for (std::uint32_t i = 0; i < thread_count; ++i) {
    const trace::ThreadId child = recorder.allocate_thread();
    recorder.record(EventType::ThreadCreate, static_cast<trace::ObjectId>(child));
    workers.push_back(Worker{
        child, std::thread([&recorder, &body, child, parent, i] {
          recorder.bind_current_thread(child, parent);
          body(i);
          recorder.thread_exit();
        })});
  }
  for (auto& worker : workers) {
    recorder.record(EventType::JoinBegin, static_cast<trace::ObjectId>(worker.tid));
    worker.thread.join();
    recorder.record(EventType::JoinEnd, static_cast<trace::ObjectId>(worker.tid));
  }
}

}  // namespace cla::rt

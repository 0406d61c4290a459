// google-benchmark microbenches for the instrumentation runtime (the
// paper §IV.A overhead claim: ~5 % on the applications studied).
//
// Measures the cost of one MAGIC() record, the instrumented vs plain
// mutex round trip, trace serialization throughput, and an end-to-end
// instrumented vs uninstrumented workload comparison.
#include <benchmark/benchmark.h>
#include <pthread.h>

#include <sstream>

#include "cla/runtime/hooks.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"
#include "support/recording.hpp"

namespace {

using cla::rt::Recorder;

// Each benchmark records into one session of the process-wide recorder,
// streamed to a temp file with libcla_interpose.so's default ring, as a
// preloaded app records.
constexpr std::size_t kInterposerRingEvents = 16384;

void BM_TimestampRead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cla::util::now_ns());
  }
}
BENCHMARK(BM_TimestampRead);

void BM_RecorderRecord(benchmark::State& state) {
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, kInterposerRingEvents);
  recorder.ensure_current_thread();
  for (auto _ : state) {
    recorder.record(cla::trace::EventType::MutexAcquire, 42);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecord);

void BM_PlainMutexRoundTrip(benchmark::State& state) {
  pthread_mutex_t mutex = PTHREAD_MUTEX_INITIALIZER;
  for (auto _ : state) {
    pthread_mutex_lock(&mutex);
    benchmark::ClobberMemory();
    pthread_mutex_unlock(&mutex);
  }
}
BENCHMARK(BM_PlainMutexRoundTrip);

void BM_InstrumentedMutexRoundTrip(benchmark::State& state) {
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, kInterposerRingEvents);
  recorder.ensure_current_thread();
  cla::rt::InstrumentedMutex mutex("bench");
  for (auto _ : state) {
    mutex.lock();
    benchmark::ClobberMemory();
    mutex.unlock();
  }
}
BENCHMARK(BM_InstrumentedMutexRoundTrip);

// End-to-end: a lock-heavy loop with and without instrumentation. The
// ratio of the two is the analog of the paper's ~5 % claim (theirs was
// measured on whole applications, where sync ops are sparser).
void BM_UninstrumentedWorkload(benchmark::State& state) {
  pthread_mutex_t mutex = PTHREAD_MUTEX_INITIALIZER;
  volatile long counter = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      pthread_mutex_lock(&mutex);
      for (int k = 0; k < 50; ++k) counter = counter + 1;
      pthread_mutex_unlock(&mutex);
    }
  }
}
BENCHMARK(BM_UninstrumentedWorkload);

void BM_InstrumentedWorkload(benchmark::State& state) {
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, kInterposerRingEvents);
  recorder.ensure_current_thread();
  cla::rt::InstrumentedMutex mutex("bench");
  volatile long counter = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      mutex.lock();
      for (int k = 0; k < 50; ++k) counter = counter + 1;
      mutex.unlock();
    }
  }
}
BENCHMARK(BM_InstrumentedWorkload);

// ---- acquisition call-stack capture overhead -----------------------------
//
// Mirrors the interposer's steady-state CLA_STACK_DEPTH path (capture up
// to 4 return addresses, FNV-hash into a per-thread intern cache, record
// with the id) so `record vs record+capture` bounds the recording
// overhead of callsite attribution. Budget: <= 2x the no-capture cost.

struct StackCacheEntry {
  std::size_t depth = 0;
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth] = {};
  std::uint64_t id = 0;
};
thread_local StackCacheEntry tls_bench_stack_cache[64];

// Stack ids are per session: a new one starts with an empty cache.
void forget_cached_stacks() {
  for (StackCacheEntry& entry : tls_bench_stack_cache) entry = {};
}

__attribute__((noinline)) std::size_t bench_capture_stack(std::uint64_t* pcs,
                                                          std::size_t depth) {
  if (depth == 0) return 0;
  void* ra = __builtin_return_address(0);
  if (ra == nullptr) return 0;
  pcs[0] = reinterpret_cast<std::uint64_t>(ra);
  if (depth == 1) return 1;
  void* prev_frame = __builtin_frame_address(0);
#define CLA_BENCH_FRAME(i)                                   \
  {                                                          \
    void* frame = __builtin_frame_address(i);                \
    if (frame == nullptr || frame <= prev_frame) return (i); \
    void* pc = __builtin_return_address(i);                  \
    if (pc == nullptr) return (i);                           \
    pcs[i] = reinterpret_cast<std::uint64_t>(pc);            \
    if (depth == (i) + 1) return (i) + 1;                    \
    prev_frame = frame;                                      \
  }
  CLA_BENCH_FRAME(1)
  CLA_BENCH_FRAME(2)
  CLA_BENCH_FRAME(3)
#undef CLA_BENCH_FRAME
  return 4;
}

std::uint64_t bench_intern_stack(const std::uint64_t* pcs, std::size_t depth) {
  if (depth == 0) return cla::trace::kNoArg;
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < depth; ++i) {
    h ^= pcs[i];
    h *= 1099511628211ull;
  }
  StackCacheEntry& slot = tls_bench_stack_cache[h % 64];
  if (slot.id != 0 && slot.depth == depth &&
      std::equal(pcs, pcs + depth, slot.pcs)) {
    return slot.id;
  }
  const std::uint64_t id = Recorder::instance().register_call_stack(pcs, depth);
  if (id == 0) return cla::trace::kNoArg;
  slot.depth = depth;
  std::copy(pcs, pcs + depth, slot.pcs);
  slot.id = id;
  return id;
}

void BM_RecorderRecordWithStackCapture(benchmark::State& state) {
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, kInterposerRingEvents);
  recorder.ensure_current_thread();
  forget_cached_stacks();
  for (auto _ : state) {
    std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
    const std::size_t captured = bench_capture_stack(pcs, 4);
    const std::uint64_t id = bench_intern_stack(pcs, captured);
    recorder.record(cla::trace::EventType::MutexAcquire, 42, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecordWithStackCapture);

void BM_InstrumentedMutexRoundTripWithStackCapture(benchmark::State& state) {
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, kInterposerRingEvents);
  recorder.ensure_current_thread();
  forget_cached_stacks();
  cla::rt::InstrumentedMutex mutex("bench");
  for (auto _ : state) {
    std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
    const std::size_t captured = bench_capture_stack(pcs, 4);
    benchmark::DoNotOptimize(bench_intern_stack(pcs, captured));
    mutex.lock();
    benchmark::ClobberMemory();
    mutex.unlock();
  }
}
BENCHMARK(BM_InstrumentedMutexRoundTripWithStackCapture);

void BM_TraceSerialization(benchmark::State& state) {
  // A ring that holds every record, so the loaded trace has them all.
  Recorder& recorder = Recorder::instance();
  cla::test_support::RecordingSession session(recorder, 1 << 17);
  recorder.ensure_current_thread();
  for (int i = 0; i < 100'000; ++i) {
    recorder.record(cla::trace::EventType::MutexAcquire, 42);
  }
  recorder.thread_exit();
  const cla::trace::Trace trace = session.finish();
  for (auto _ : state) {
    std::ostringstream out;
    cla::trace::write_trace(trace, out);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()) * 32);
}
BENCHMARK(BM_TraceSerialization);

}  // namespace

BENCHMARK_MAIN();

// LD_PRELOAD interposition library (paper §IV.A, Figs. 3-4).
//
// Preload this library to profile an *uninstrumented* pthread application:
//
//   CLA_TRACE_FILE=/tmp/app.clat LD_PRELOAD=./libcla_interpose.so ./app
//   cla-analyze /tmp/app.clat
//
// Every pthread synchronization routine that can block is overridden; the
// override records the paper's MAGIC() events around a call to the real
// routine (resolved once with dlsym(RTLD_NEXT, ...)). Synchronization
// object ids are the objects' addresses.
//
// Crash resilience: recording runs in one Recorder session —
// each thread appends raw clock ticks to its own bounded ring, and the
// recorder's flusher thread drains the rings to $CLA_TRACE_FILE (default
// cla_trace.clat) as checksummed `.clat` chunks while the app runs,
// converting ticks to ns as it goes, so the trace survives the process.
// The flusher also takes the recorder's fixed costs off the app: it runs
// the TSC calibration and faults each ring in just ahead of its thread.
// $CLA_TRACE_FORMAT picks the chunk encoding (v2 raw, v3 compact varint);
// $CLA_BUFFER_EVENTS sizes each thread's ring at twice that many 16-byte
// slots (default 16384, a 512 KiB ring). Fatal signals (SIGSEGV,
// SIGABRT, SIGBUS, SIGTERM) and _exit/_Exit trigger an async-signal-safe
// best-effort spill of the rings' undrained tails before the process
// dies; a torn final chunk is dropped by `cla-analyze --salvage`'s CRC
// check. A trace file that cannot be opened costs the app nothing but
// one stderr line: recording is off and no file is written.
//
// The library is self-contained: it carries a private static copy of
// libstdc++ and exports only the interposed entry points below (see
// interpose.map), so it adds no libstdc++.so load to the host and a C++
// host never binds to that private copy. The unwinder stays the shared
// libgcc_s, the one pthread_cancel's forced unwind runs in.
//
// Re-entrancy: the recorder itself may take a std::mutex during thread
// registration, which would recurse into these hooks; a thread-local
// guard routes such nested calls straight to the real routines.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "cla/runtime/recorder.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"

namespace {

using cla::rt::Recorder;
using cla::trace::EventType;
using cla::trace::ObjectId;

// ---- real symbol resolution -------------------------------------------

// Missing symbols degrade tracing instead of killing the host: warn once
// per symbol and return nullptr; every hook null-checks its real function
// and either passes through untraced or reports ENOSYS.
template <typename Fn>
Fn resolve(const char* name) {
  void* symbol = dlsym(RTLD_NEXT, name);
  if (symbol == nullptr) {
    std::fprintf(stderr,
                 "cla_interpose: cannot resolve %s; tracing degraded\n", name);
    return nullptr;
  }
  return reinterpret_cast<Fn>(symbol);
}

struct RealPthread {
  int (*mutex_lock)(pthread_mutex_t*) =
      resolve<int (*)(pthread_mutex_t*)>("pthread_mutex_lock");
  int (*mutex_trylock)(pthread_mutex_t*) =
      resolve<int (*)(pthread_mutex_t*)>("pthread_mutex_trylock");
  int (*mutex_timedlock)(pthread_mutex_t*, const struct timespec*) =
      resolve<int (*)(pthread_mutex_t*, const struct timespec*)>(
          "pthread_mutex_timedlock");
  int (*mutex_unlock)(pthread_mutex_t*) =
      resolve<int (*)(pthread_mutex_t*)>("pthread_mutex_unlock");
  int (*barrier_init)(pthread_barrier_t*, const pthread_barrierattr_t*,
                      unsigned) =
      resolve<int (*)(pthread_barrier_t*, const pthread_barrierattr_t*,
                      unsigned)>("pthread_barrier_init");
  int (*barrier_wait)(pthread_barrier_t*) =
      resolve<int (*)(pthread_barrier_t*)>("pthread_barrier_wait");
  int (*cond_wait)(pthread_cond_t*, pthread_mutex_t*) =
      resolve<int (*)(pthread_cond_t*, pthread_mutex_t*)>("pthread_cond_wait");
  int (*cond_timedwait)(pthread_cond_t*, pthread_mutex_t*,
                        const struct timespec*) =
      resolve<int (*)(pthread_cond_t*, pthread_mutex_t*,
                      const struct timespec*)>("pthread_cond_timedwait");
  int (*cond_signal)(pthread_cond_t*) =
      resolve<int (*)(pthread_cond_t*)>("pthread_cond_signal");
  int (*cond_broadcast)(pthread_cond_t*) =
      resolve<int (*)(pthread_cond_t*)>("pthread_cond_broadcast");
  int (*create)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*) =
      resolve<int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                      void*)>("pthread_create");
  int (*join)(pthread_t, void**) =
      resolve<int (*)(pthread_t, void**)>("pthread_join");
  void (*exit_now)(int) = resolve<void (*)(int)>("_exit");
};

// Resolved on first use (a hook may run before this library's static
// initializers); inline, so a hook pays one guard check, not a call.
__attribute__((always_inline)) inline RealPthread& real() {
  static RealPthread fns;
  return fns;
}

// ---- re-entrancy guard --------------------------------------------------

thread_local int tls_in_hook = 0;

struct HookGuard {
  bool armed;
  // Disarmed while re-entered from a hook AND while the calling thread is
  // recorder machinery (the flusher loop, atfork handlers): the
  // recorder's own pthread use must never surface as trace events.
  HookGuard()
      : armed(tls_in_hook == 0 && !Recorder::current_thread_internal()) {
    ++tls_in_hook;
  }
  ~HookGuard() { --tls_in_hook; }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;
};

// ---- barrier participant tracking ---------------------------------------

struct BarrierShadow {
  unsigned participants = 0;
  std::atomic<std::uint64_t> arrivals{0};
};

// Spinlock-protected maps: must not use pthread mutexes (we override them).
std::atomic_flag g_barrier_lock = ATOMIC_FLAG_INIT;
std::map<void*, BarrierShadow>* g_barriers = nullptr;

std::atomic_flag g_thread_map_lock = ATOMIC_FLAG_INIT;
std::map<pthread_t, cla::trace::ThreadId>* g_thread_ids = nullptr;

void remember_thread(pthread_t handle, cla::trace::ThreadId tid) {
  while (g_thread_map_lock.test_and_set(std::memory_order_acquire)) {}
  if (g_thread_ids == nullptr)
    g_thread_ids = new std::map<pthread_t, cla::trace::ThreadId>();
  (*g_thread_ids)[handle] = tid;
  g_thread_map_lock.clear(std::memory_order_release);
}

cla::trace::ThreadId lookup_thread(pthread_t handle) {
  while (g_thread_map_lock.test_and_set(std::memory_order_acquire)) {}
  cla::trace::ThreadId tid = cla::trace::kNoThread;
  if (g_thread_ids != nullptr) {
    auto it = g_thread_ids->find(handle);
    if (it != g_thread_ids->end()) tid = it->second;
  }
  g_thread_map_lock.clear(std::memory_order_release);
  return tid;
}

BarrierShadow* barrier_shadow(pthread_barrier_t* barrier, bool create_entry) {
  while (g_barrier_lock.test_and_set(std::memory_order_acquire)) {}
  if (g_barriers == nullptr) g_barriers = new std::map<void*, BarrierShadow>();
  BarrierShadow* shadow = nullptr;
  auto it = g_barriers->find(barrier);
  if (it != g_barriers->end()) {
    shadow = &it->second;
  } else if (create_entry) {
    shadow = &(*g_barriers)[barrier];
  }
  g_barrier_lock.clear(std::memory_order_release);
  return shadow;
}

// ---- fatal-signal spill --------------------------------------------------

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGTERM};

void fatal_signal_handler(int sig) {
  // Async-signal-safe: crash_spill only touches atomics and writev().
  Recorder::instance().crash_spill();
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  sigaction(sig, &dfl, nullptr);
  raise(sig);  // delivered with default disposition on handler return
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = &fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (int sig : kFatalSignals) {
    struct sigaction old = {};
    if (sigaction(sig, nullptr, &old) == 0 && old.sa_handler == SIG_IGN &&
        sig == SIGTERM) {
      continue;  // respect an inherited "ignore SIGTERM"
    }
    sigaction(sig, &sa, nullptr);
  }
}

std::size_t buffer_events_from_env() {
  constexpr std::size_t kDefault = 16384;
  const char* raw = std::getenv("CLA_BUFFER_EVENTS");
  if (raw == nullptr || *raw == '\0') return kDefault;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0) {
    std::fprintf(stderr,
                 "cla_interpose: ignoring bad CLA_BUFFER_EVENTS=%s\n", raw);
    return kDefault;
  }
  return static_cast<std::size_t>(value);
}

// $CLA_TRACE_MAX_BYTES enables ring retention: a byte cap on the trace
// file's on-disk size (0 / unset = unbounded). The writer retires the
// oldest complete chunks as counted loss once the cap is hit.
std::uint64_t ring_bytes_from_env() {
  const char* raw = std::getenv("CLA_TRACE_MAX_BYTES");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') {
    std::fprintf(stderr,
                 "cla_interpose: ignoring bad CLA_TRACE_MAX_BYTES=%s\n", raw);
    return 0;
  }
  return static_cast<std::uint64_t>(value);
}

// ---- acquisition call-stack capture --------------------------------------
//
// $CLA_STACK_DEPTH (default 0 = off) enables recording the application
// call site of every successful mutex acquisition: up to that many return
// addresses, innermost first, interned into the trace's dedup'd
// CallStacks table and referenced through MutexAcquire's arg field.
// Depth 1 reads only this frame's return address and is always safe;
// deeper levels follow the frame-pointer chain, which requires the
// application to keep frame pointers (-fno-omit-frame-pointer) — each
// step is guarded by a null/monotonicity check on the frame address, the
// standard mitigation for a broken chain.

std::size_t stack_depth_from_env() {
  const char* raw = std::getenv("CLA_STACK_DEPTH");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') {
    std::fprintf(stderr, "cla_interpose: ignoring bad CLA_STACK_DEPTH=%s\n",
                 raw);
    return 0;
  }
  return std::min<std::size_t>(static_cast<std::size_t>(value),
                               cla::trace::kMaxCallStackDepth);
}

__attribute__((always_inline)) inline std::size_t stack_depth() {
  static const std::size_t depth = stack_depth_from_env();
  return depth;
}

// Captures up to `depth` return addresses of the calling application,
// innermost first. always_inline so that, expanded inside an interposed
// entry point, level 0 is the application's call site (the hook's own
// return address), not a frame inside this library.
__attribute__((always_inline)) inline std::size_t capture_stack(
    std::uint64_t* pcs, std::size_t depth) {
  if (depth == 0) return 0;
  void* ra = __builtin_return_address(0);
  if (ra == nullptr) return 0;
  pcs[0] = reinterpret_cast<std::uint64_t>(ra);
  if (depth == 1) return 1;
  void* prev_frame = __builtin_frame_address(0);
#define CLA_FRAME(i)                                              \
  {                                                               \
    void* frame = __builtin_frame_address(i);                     \
    if (frame == nullptr || frame <= prev_frame) return (i);      \
    void* pc = __builtin_return_address(i);                       \
    if (pc == nullptr) return (i);                                \
    pcs[i] = reinterpret_cast<std::uint64_t>(pc);                 \
    if (depth == (i) + 1) return (i) + 1;                         \
    prev_frame = frame;                                           \
  }
  CLA_FRAME(1)
  CLA_FRAME(2)
  CLA_FRAME(3)
  CLA_FRAME(4)
  CLA_FRAME(5)
  CLA_FRAME(6)
  CLA_FRAME(7)
#undef CLA_FRAME
  return cla::trace::kMaxCallStackDepth;
}

// Per-thread intern cache in front of Recorder::register_call_stack: lock
// acquisitions cluster on a handful of call sites, so nearly every capture
// resolves to an id without touching the recorder's registration mutex —
// this is what keeps depth-4 capture within the ~2x overhead budget.
struct StackCacheEntry {
  std::size_t depth = 0;
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth] = {};
  std::uint64_t id = 0;
};
constexpr std::size_t kStackCacheSlots = 64;
thread_local StackCacheEntry tls_stack_cache[kStackCacheSlots];

std::uint64_t intern_captured_stack(const std::uint64_t* pcs,
                                    std::size_t depth) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the pc chain
  for (std::size_t i = 0; i < depth; ++i) {
    h ^= pcs[i];
    h *= 1099511628211ull;
  }
  StackCacheEntry& slot = tls_stack_cache[h % kStackCacheSlots];
  if (slot.id != 0 && slot.depth == depth &&
      std::equal(pcs, pcs + depth, slot.pcs)) {
    return slot.id;
  }
  const std::uint64_t id =
      Recorder::instance().register_call_stack(pcs, depth);
  if (id == 0) return cla::trace::kNoArg;  // recorder shut down
  slot.depth = depth;
  std::copy(pcs, pcs + depth, slot.pcs);
  slot.id = id;
  return id;
}

// The interned id of a captured stack; kNoArg when none was captured
// (the default, CLA_STACK_DEPTH unset) without leaving the hook.
inline std::uint64_t intern_stack(const std::uint64_t* pcs,
                                  std::size_t depth) {
  return depth == 0 ? cla::trace::kNoArg : intern_captured_stack(pcs, depth);
}

// ---- trace lifecycle -----------------------------------------------------

const char* trace_path() {
  const char* path = std::getenv("CLA_TRACE_FILE");
  return path != nullptr ? path : "cla_trace.clat";
}

// $CLA_TRACE_FORMAT selects the streamed `.clat` version: v2 (raw chunks,
// default) or v3 (compact varint chunks).
std::uint32_t trace_format_from_env() {
  const char* raw = std::getenv("CLA_TRACE_FORMAT");
  if (raw == nullptr || *raw == '\0') return cla::trace::kTraceVersion;
  std::uint32_t version = cla::trace::kTraceVersion;
  if (!cla::trace::parse_trace_format(raw, version)) {
    std::fprintf(stderr,
                 "cla_interpose: ignoring CLA_TRACE_FORMAT=%s (want v2|v3)\n",
                 raw);
    return cla::trace::kTraceVersion;
  }
  return version;
}

struct FlushAtExit {
  FlushAtExit() {
    // Resolve real symbols and register the main thread as thread 0
    // before the application creates any threads. The guard keeps the
    // recorder's own flusher std::thread out of the trace.
    HookGuard guard;
    (void)real();
    Recorder& recorder = Recorder::instance();
    try {
      recorder.start_streaming(trace_path(), buffer_events_from_env(),
                               trace_format_from_env(),
                               ring_bytes_from_env());
    } catch (const std::exception& e) {
      // No session: every hook's record drops, and nothing is written.
      std::fprintf(stderr,
                   "cla_interpose: cannot write trace %s (%s); "
                   "recording is off\n",
                   trace_path(), e.what());
      return;
    }
    recorder.ensure_current_thread();
    install_signal_handlers();
  }

  ~FlushAtExit() {
    HookGuard guard;  // recorder may lock/join during teardown
    Recorder& recorder = Recorder::instance();
    // Not streaming: the trace never opened, here or in a forked child.
    if (!recorder.streaming()) return;
    const std::uint64_t dropped = recorder.dropped_events();
    // stream_path(), not the env var: a forked child streams to its own
    // <path>.<pid> file.
    const std::string path = recorder.stream_path();
    recorder.finish_streaming();
    std::fprintf(stderr, "cla_interpose: trace written to %s%s\n",
                 path.c_str(),
                 dropped > 0 ? " (some events dropped; see header)" : "");
  }
};

FlushAtExit g_flush;

ObjectId oid(const void* address) {
  return reinterpret_cast<ObjectId>(address);
}

// ---- pthread_create trampoline ------------------------------------------

struct StartPayload {
  void* (*fn)(void*);
  void* arg;
  cla::trace::ThreadId tid;
  cla::trace::ThreadId parent;
};

void* start_trampoline(void* raw) {
  StartPayload payload = *static_cast<StartPayload*>(raw);
  delete static_cast<StartPayload*>(raw);
  {
    HookGuard guard;
    Recorder::instance().bind_current_thread(payload.tid, payload.parent);
  }
  void* result = payload.fn(payload.arg);
  {
    HookGuard guard;
    Recorder::instance().thread_exit();
  }
  return result;
}

// A hook whose real symbol never resolved has nothing to delegate to.
// Returning a bare ENOSYS with no context is a debugging dead end, so the
// first hit per symbol leaves a stderr breadcrumb, and every hit counts
// toward the CLA_W_PARTIAL_INTERPOSITION runtime warning in the trace —
// the analyzer can tell the reader the recording has blind spots.
int missing_real(const char* name, std::atomic<bool>& warned) {
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "cla_interpose: %s called but its real symbol never "
                 "resolved; returning ENOSYS (tracing is partial)\n",
                 name);
  }
  Recorder::instance().note_partial_interposition();
  return ENOSYS;
}

#define CLA_MISSING_REAL(name)              \
  do {                                      \
    static std::atomic<bool> warned{false}; \
    return missing_real(name, warned);      \
  } while (0)

// Acquisition events are recorded only once the real call reports the
// lock is actually held (rc == 0, or EOWNERDEAD: a robust mutex was
// acquired and the caller must recover it). A failed lock (EDEADLK on an
// error-checking mutex, EINVAL, ETIMEDOUT, ...) records nothing, so lock
// pairing in the trace can't be corrupted by error paths.
bool lock_acquired(int rc) { return rc == 0 || rc == EOWNERDEAD; }

// The lock hooks' shared protocol. The clock is read once on arrival,
// just before the trylock probe, so the read never lengthens the
// application's critical section (as the release is read only after the
// unlock). A probe that acquires records one fused uncontended
// acquisition (MutexAcquire + MutexAcquired arg 0) at the arrival time.
// Otherwise the blocking `lock` runs, and a successful one records
// MutexAcquire back-dated to the arrival, so a contended wait measures
// from arrival, then MutexAcquired with the contended flag (EBUSY; any
// other probe failure proves nothing about contention). With no real
// trylock the blocking call is the whole acquisition. The call stack
// (`pcs`, captured by the hook) is interned only once held.
template <typename Lock>
__attribute__((always_inline)) inline int acquire_recorded(
    pthread_mutex_t* mutex, const std::uint64_t* pcs, std::size_t captured,
    Lock&& lock) {
  Recorder& recorder = Recorder::instance();
  const bool probe = real().mutex_trylock != nullptr;
  const std::uint64_t arrival = cla::util::ticks();
  int rc = probe ? real().mutex_trylock(mutex) : EBUSY;
  if (probe && lock_acquired(rc)) {
    recorder.record_acquired_at(arrival, oid(mutex),
                                intern_stack(pcs, captured));
    return rc;
  }
  const bool contended = probe && rc == EBUSY;
  rc = lock();
  if (lock_acquired(rc)) {
    recorder.record_at(EventType::MutexAcquire, arrival, oid(mutex),
                       intern_stack(pcs, captured));
    recorder.record(EventType::MutexAcquired, oid(mutex), contended ? 1 : 0);
  }
  return rc;
}

}  // namespace

// ---- interposed entry points --------------------------------------------

extern "C" {

int pthread_mutex_lock(pthread_mutex_t* mutex) {
  HookGuard guard;
  if (real().mutex_lock == nullptr) CLA_MISSING_REAL("pthread_mutex_lock");
  if (!guard.armed) return real().mutex_lock(mutex);
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
  const std::size_t captured = capture_stack(pcs, stack_depth());
  return acquire_recorded(mutex, pcs, captured,
                          [mutex] { return real().mutex_lock(mutex); });
}

int pthread_mutex_trylock(pthread_mutex_t* mutex) {
  HookGuard guard;
  if (real().mutex_trylock == nullptr) CLA_MISSING_REAL("pthread_mutex_trylock");
  if (!guard.armed) return real().mutex_trylock(mutex);
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
  const std::size_t captured = capture_stack(pcs, stack_depth());
  const std::uint64_t arrival = cla::util::ticks();
  const int rc = real().mutex_trylock(mutex);
  if (lock_acquired(rc)) {
    Recorder::instance().record_acquired_at(arrival, oid(mutex),
                                            intern_stack(pcs, captured));
  }
  return rc;
}

int pthread_mutex_timedlock(pthread_mutex_t* mutex,
                            const struct timespec* abstime) {
  HookGuard guard;
  if (real().mutex_timedlock == nullptr) CLA_MISSING_REAL("pthread_mutex_timedlock");
  if (!guard.armed) return real().mutex_timedlock(mutex, abstime);
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
  const std::size_t captured = capture_stack(pcs, stack_depth());
  return acquire_recorded(mutex, pcs, captured, [mutex, abstime] {
    return real().mutex_timedlock(mutex, abstime);
  });
}

int pthread_mutex_unlock(pthread_mutex_t* mutex) {
  HookGuard guard;
  if (real().mutex_unlock == nullptr) CLA_MISSING_REAL("pthread_mutex_unlock");
  if (!guard.armed) return real().mutex_unlock(mutex);
  const int rc = real().mutex_unlock(mutex);
  // EPERM (not the owner) and friends release nothing: recording would
  // fabricate an unlock the analyzer pairs with someone else's hold.
  if (rc == 0) Recorder::instance().record(EventType::MutexReleased, oid(mutex));
  return rc;
}

int pthread_barrier_init(pthread_barrier_t* barrier,
                         const pthread_barrierattr_t* attr, unsigned count) {
  HookGuard guard;
  if (real().barrier_init == nullptr) CLA_MISSING_REAL("pthread_barrier_init");
  if (guard.armed) {
    BarrierShadow* shadow = barrier_shadow(barrier, /*create_entry=*/true);
    shadow->participants = count;
    shadow->arrivals.store(0, std::memory_order_relaxed);
  }
  return real().barrier_init(barrier, attr, count);
}

int pthread_barrier_wait(pthread_barrier_t* barrier) {
  HookGuard guard;
  if (real().barrier_wait == nullptr) CLA_MISSING_REAL("pthread_barrier_wait");
  if (!guard.armed) return real().barrier_wait(barrier);
  Recorder& recorder = Recorder::instance();
  std::uint64_t episode = cla::trace::kNoArg;
  if (BarrierShadow* shadow = barrier_shadow(barrier, /*create_entry=*/false);
      shadow != nullptr && shadow->participants > 0) {
    episode = shadow->arrivals.fetch_add(1, std::memory_order_relaxed) /
              shadow->participants;
  }
  recorder.record(EventType::BarrierArrive, oid(barrier), episode);
  const int rc = real().barrier_wait(barrier);
  recorder.record(EventType::BarrierLeave, oid(barrier), episode);
  return rc;
}

int pthread_cond_wait(pthread_cond_t* cond, pthread_mutex_t* mutex) {
  HookGuard guard;
  if (real().cond_wait == nullptr) CLA_MISSING_REAL("pthread_cond_wait");
  if (!guard.armed) return real().cond_wait(cond, mutex);
  Recorder& recorder = Recorder::instance();
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
  const std::size_t captured = capture_stack(pcs, stack_depth());
  // One clock read on each side of the wait, taken while the mutex is
  // held: the release and the wait start are one instant, and so are
  // the wake-up and the re-acquire (which may have contended, but the
  // wait hides it).
  const std::uint64_t begin = cla::util::ticks();
  recorder.record_at(EventType::MutexReleased, begin, oid(mutex));
  recorder.record_at(EventType::CondWaitBegin, begin, oid(cond), oid(mutex));
  const int rc = real().cond_wait(cond, mutex);
  const std::uint64_t end = cla::util::ticks();
  recorder.record_at(EventType::CondWaitEnd, end, oid(cond), oid(mutex));
  recorder.record_acquired_at(end, oid(mutex), intern_stack(pcs, captured));
  return rc;
}

int pthread_cond_timedwait(pthread_cond_t* cond, pthread_mutex_t* mutex,
                           const struct timespec* abstime) {
  HookGuard guard;
  if (real().cond_timedwait == nullptr) CLA_MISSING_REAL("pthread_cond_timedwait");
  if (!guard.armed) return real().cond_timedwait(cond, mutex, abstime);
  Recorder& recorder = Recorder::instance();
  std::uint64_t pcs[cla::trace::kMaxCallStackDepth];
  const std::size_t captured = capture_stack(pcs, stack_depth());
  // One clock read on each side of the wait, taken while the mutex is
  // held: the release and the wait start are one instant, and so are
  // the wake-up and the re-acquire (which may have contended, but the
  // wait hides it).
  const std::uint64_t begin = cla::util::ticks();
  recorder.record_at(EventType::MutexReleased, begin, oid(mutex));
  recorder.record_at(EventType::CondWaitBegin, begin, oid(cond), oid(mutex));
  const int rc = real().cond_timedwait(cond, mutex, abstime);
  const std::uint64_t end = cla::util::ticks();
  recorder.record_at(EventType::CondWaitEnd, end, oid(cond), oid(mutex));
  recorder.record_acquired_at(end, oid(mutex), intern_stack(pcs, captured));
  return rc;
}

int pthread_cond_signal(pthread_cond_t* cond) {
  HookGuard guard;
  if (real().cond_signal == nullptr) CLA_MISSING_REAL("pthread_cond_signal");
  if (guard.armed) Recorder::instance().record(EventType::CondSignal, oid(cond));
  return real().cond_signal(cond);
}

int pthread_cond_broadcast(pthread_cond_t* cond) {
  HookGuard guard;
  if (real().cond_broadcast == nullptr) CLA_MISSING_REAL("pthread_cond_broadcast");
  if (guard.armed)
    Recorder::instance().record(EventType::CondBroadcast, oid(cond));
  return real().cond_broadcast(cond);
}

int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*start_routine)(void*), void* arg) {
  HookGuard guard;
  if (real().create == nullptr) CLA_MISSING_REAL("pthread_create");
  if (!guard.armed) return real().create(thread, attr, start_routine, arg);
  Recorder& recorder = Recorder::instance();
  const cla::trace::ThreadId parent = recorder.ensure_current_thread();
  const cla::trace::ThreadId child = recorder.allocate_thread();
  recorder.record(EventType::ThreadCreate, static_cast<ObjectId>(child));
  auto* payload = new StartPayload{start_routine, arg, child, parent};
  const int rc = real().create(thread, attr, &start_trampoline, payload);
  if (rc != 0) {
    delete payload;
  } else {
    remember_thread(*thread, child);
  }
  return rc;
}

int pthread_join(pthread_t thread, void** retval) {
  HookGuard guard;
  if (real().join == nullptr) CLA_MISSING_REAL("pthread_join");
  if (!guard.armed) return real().join(thread, retval);
  Recorder& recorder = Recorder::instance();
  const cla::trace::ThreadId target = lookup_thread(thread);
  if (target == cla::trace::kNoThread) {
    // A thread created before this library loaded; nothing to trace.
    return real().join(thread, retval);
  }
  recorder.record(EventType::JoinBegin, static_cast<ObjectId>(target));
  const int rc = real().join(thread, retval);
  recorder.record(EventType::JoinEnd, static_cast<ObjectId>(target));
  return rc;
}

// _exit / _Exit skip atexit handlers and static destructors, so the
// normal finish_streaming() path never runs: spill what the buffers hold
// first. crash_spill is idempotent and cheap once recording is shut down.
void _exit(int status) {
  Recorder::instance().crash_spill();
  if (real().exit_now != nullptr) real().exit_now(status);
  _Exit(status);  // resolver failed; libc _Exit still terminates
}

void _Exit(int status) {
  Recorder::instance().crash_spill();
  if (real().exit_now != nullptr) real().exit_now(status);
  abort();  // unreachable unless the resolver failed entirely
}

}  // extern "C"

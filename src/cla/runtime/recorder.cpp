#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr (glibc); must precede the first system header
#endif

#include "cla/runtime/recorder.hpp"

#include <dlfcn.h>
#include <linux/futex.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>
#include <set>

#include "cla/util/clock.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"

namespace cla::rt {

namespace {

struct TlsBinding {
  Recorder* recorder = nullptr;
  void* buffer = nullptr;
  std::uint64_t epoch = 0;
};

thread_local TlsBinding tls_binding;

// Epochs are process-globally unique so a stale TLS binding can never
// false-match a different (or re-created) Recorder that happens to live
// at the same address.
std::atomic<std::uint64_t> g_binding_epoch{0};

std::uint64_t next_binding_epoch() {
  return g_binding_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

// The recorder currently in streaming mode (at most one per process in
// practice — the interposer singleton; a later start_streaming wins).
// The atfork handlers and the TSD thread-exit destructor dispatch through
// this pointer because both are process-global registrations.
std::atomic<Recorder*> g_stream_recorder{nullptr};

// A TSD slot whose destructor fires when a bound thread dies for any
// reason pthread knows about — pthread_exit, pthread_cancel, or falling
// off the start routine — recording the ThreadExit the thread never got
// to record itself.
pthread_key_t g_thread_exit_key;
std::once_flag g_thread_exit_key_once;
std::once_flag g_atfork_once;

extern "C" void cla_thread_exit_destructor(void*) {
  if (Recorder* recorder = g_stream_recorder.load(std::memory_order_acquire)) {
    recorder->thread_exit_on_destroy();
  }
}

// Set while the current thread runs recorder-internal machinery; the
// interposer's HookGuard disarms on it (see current_thread_internal()).
thread_local bool tls_internal_thread = false;

// Resolves one recorded return address to "symbol+0xoff (module)" via
// dladdr. Only meaningful in the recording process (the PCs index *its*
// address space), which is why symbols travel in the trace instead of
// being resolved at analysis time. Empty string when dladdr knows
// nothing about the address (static binary, stripped JIT page...).
std::string symbolize_pc(std::uint64_t pc) {
  Dl_info info{};
  const auto addr = reinterpret_cast<void*>(static_cast<std::uintptr_t>(pc));
  if (dladdr(addr, &info) == 0) return {};
  char buf[32];
  std::string out;
  if (info.dli_sname != nullptr) {
    out = info.dli_sname;
    const auto base = reinterpret_cast<std::uintptr_t>(info.dli_saddr);
    if (base != 0 && static_cast<std::uintptr_t>(pc) >= base) {
      std::snprintf(buf, sizeof buf, "+0x%llx",
                    static_cast<unsigned long long>(pc - base));
      out += buf;
    }
  }
  if (info.dli_fname != nullptr && *info.dli_fname != '\0') {
    // Module basename only: full build paths churn golden outputs.
    const char* slash = std::strrchr(info.dli_fname, '/');
    const char* module = slash != nullptr ? slash + 1 : info.dli_fname;
    if (!out.empty()) out += ' ';
    out += '(';
    out += module;
    out += ')';
  }
  return out;
}

constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kPrefaultStep = 16 * kPageBytes;
// Rings drain once this many events are pending (or half the ring, if
// that is smaller), and every ring drains completely every kSweepNs.
constexpr std::uint64_t kDrainThreshold = 4096;
constexpr std::uint64_t kSweepNs = 50'000'000;

}  // namespace

bool Recorder::current_thread_internal() noexcept {
  return tls_internal_thread;
}

Recorder::ScopedInternal::ScopedInternal() noexcept
    : prev_(tls_internal_thread) {
  tls_internal_thread = true;
}

Recorder::ScopedInternal::~ScopedInternal() { tls_internal_thread = prev_; }

/// Legacy unbounded in-memory buffer (collect() mode).
struct Recorder::ThreadBuffer {
  trace::ThreadId tid = 0;
  std::vector<trace::Event> events;
};

/// Streaming-mode ring: single producer (the owning thread), single
/// drainer at a time (the flusher; finish_streaming and crash_spill once
/// it is stopped or parked). The owner stores an event at `head` and
/// publishes head + 1 with release; the drainer writes [tail, head) and
/// then advances `tail`. Slots hold raw ticks until the drainer converts
/// them in place. All hand-off is via the atomics, so the crash handler
/// can read any ring without locks.
struct Recorder::StreamBuffer {
  StreamBuffer(trace::ThreadId id, std::uint32_t slots_in_ring,
               std::uint32_t wake_every)
      : tid(id),
        capacity(slots_in_ring),
        bytes((slots_in_ring * sizeof(trace::Event) + kPageBytes - 1) /
              kPageBytes * kPageBytes),
        // Raw storage: value-initialising the events would zero-fill (and
        // fault in) the whole ring on the registering application thread.
        slots(static_cast<trace::Event*>(
            ::operator new(bytes, std::align_val_t{kPageBytes}))),
        until_wake(wake_every) {}
  ~StreamBuffer() { ::operator delete(slots, std::align_val_t{kPageBytes}); }

  const trace::ThreadId tid;
  const std::uint32_t capacity;
  const std::size_t bytes;
  trace::Event* const slots;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> last_ts{0};  // ticks, for exit synthesis
  std::atomic<bool> saw_exit{false};

  // Drainer side, on its own cache line: the owner only reads `tail` when
  // its cached copy says the ring is full.
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::atomic<bool> draining{false};

  // Owner-thread-only state.
  alignas(64) std::uint64_t tail_cache = 0;
  std::uint32_t head_slot = 0;
  std::uint32_t until_wake;    // appends left before the next flusher wake
  std::uint64_t clamp_ts = 0;  // per-thread monotonic timestamp repair
};

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

Recorder::Recorder() {
  util::fault::init();
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
}

Recorder::~Recorder() {
  finish_streaming();
  // Never leave the atfork/TSD dispatch pointer dangling at a destroyed
  // recorder (unit tests create short-lived streaming recorders).
  Recorder* self = this;
  g_stream_recorder.compare_exchange_strong(self, nullptr,
                                            std::memory_order_acq_rel);
}

trace::ThreadId Recorder::allocate_thread() {
  return next_tid_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::bind_current_thread(trace::ThreadId tid, trace::ThreadId parent) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  void* raw = nullptr;
  if (streaming_.load(std::memory_order_acquire)) {
    auto buffer = std::make_unique<StreamBuffer>(
        tid, static_cast<std::uint32_t>(stream_capacity_),
        static_cast<std::uint32_t>(drain_threshold_));
    StreamBuffer* sb = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::uint32_t slot = stream_count_.load(std::memory_order_relaxed);
      if (slot >= kMaxStreamThreads) return;  // fail soft; records will drop
      stream_owned_.push_back(std::move(buffer));
      stream_registry_[slot].store(sb, std::memory_order_release);
      stream_count_.store(slot + 1, std::memory_order_release);
    }
    wake_flusher();  // it pre-faults the new ring off this thread
    raw = sb;
    // Arm the per-thread exit destructor: if this thread is cancelled or
    // exits without reaching thread_exit(), the destructor records the
    // missing ThreadExit (value is a non-null sentinel; the destructor
    // resolves the recorder through g_stream_recorder).
    std::call_once(g_thread_exit_key_once, [] {
      pthread_key_create(&g_thread_exit_key, cla_thread_exit_destructor);
    });
    pthread_setspecific(g_thread_exit_key, reinterpret_cast<void*>(1));
  } else {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = tid;
    buffer->events.reserve(1024);
    raw = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(buffer));
    }
  }
  tls_binding = TlsBinding{this, raw, epoch_.load(std::memory_order_relaxed)};
  record(trace::EventType::ThreadStart,
         parent == trace::kNoThread ? trace::kNoObject
                                    : static_cast<trace::ObjectId>(parent));
}

trace::ThreadId Recorder::ensure_current_thread() {
  if (streaming_.load(std::memory_order_acquire)) {
    if (StreamBuffer* buffer = current_buffer<StreamBuffer>()) return buffer->tid;
  } else if (ThreadBuffer* buffer = current_buffer<ThreadBuffer>()) {
    return buffer->tid;
  }
  const trace::ThreadId tid = allocate_thread();
  bind_current_thread(tid, trace::kNoThread);
  return tid;
}

template <typename Buffer>
Buffer* Recorder::current_buffer() {
  const TlsBinding& binding = tls_binding;
  if (binding.recorder != this ||
      binding.epoch != epoch_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  return static_cast<Buffer*>(binding.buffer);
}

void Recorder::thread_exit() {
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::thread_exit_on_destroy() noexcept {
  if (!streaming_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  StreamBuffer* buffer = current_buffer<StreamBuffer>();
  if (buffer == nullptr || buffer->saw_exit.load(std::memory_order_relaxed)) {
    return;
  }
  // A fresh timestamp (not last_ts): the thread died *after* its last
  // recorded event, and the gap is real time its open critical sections
  // were held.
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::note_partial_interposition() noexcept {
  warn_partial_interpose_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::record(trace::EventType type, trace::ObjectId object,
                      std::uint64_t arg) {
  record_at(type, util::ticks(), object, arg);
}

void Recorder::record_at(trace::EventType type, std::uint64_t ts,
                         trace::ObjectId object, std::uint64_t arg) {
  if (util::fault::enabled()) util::fault::on_event();
  if (shutdown_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (streaming_.load(std::memory_order_acquire)) {
    StreamBuffer* ring = current_buffer<StreamBuffer>();
    if (ring == nullptr) {
      ensure_current_thread();
      ring = current_buffer<StreamBuffer>();
    }
    if (ring != nullptr) {
      stream_append(*ring, trace::Event{ts, object, arg, type, 0, ring->tid});
      return;
    }
  } else {
    ThreadBuffer* buffer = current_buffer<ThreadBuffer>();
    if (buffer == nullptr) {
      ensure_current_thread();
      buffer = current_buffer<ThreadBuffer>();
    }
    if (buffer != nullptr) {
      buffer->events.push_back(
          trace::Event{ts, object, arg, type, 0, buffer->tid});
      return;
    }
  }
  // Binding failed (registry full, or bound during teardown): fail soft.
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::stream_append(StreamBuffer& ring, const trace::Event& event) {
  trace::Event e = event;
  // Per-thread monotone clamp at record time (on ticks: the drainer's
  // conversion is monotone): the clean-exit repair of collect() never
  // runs when chunks are already on disk.
  if (e.ts < ring.clamp_ts) {
    e.ts = ring.clamp_ts;
  } else {
    ring.clamp_ts = e.ts;
  }
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  if (head - ring.tail_cache == ring.capacity) {
    ring.tail_cache = ring.tail.load(std::memory_order_acquire);
    if (head - ring.tail_cache == ring.capacity) {
      // Flusher starved: the ring is full. Drop instead of blocking.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ring.slots[ring.head_slot] = e;
  if (++ring.head_slot == ring.capacity) ring.head_slot = 0;
  ring.head.store(head + 1, std::memory_order_release);
  ring.last_ts.store(e.ts, std::memory_order_relaxed);
  if (e.type == trace::EventType::ThreadExit) {
    ring.saw_exit.store(true, std::memory_order_relaxed);
    wake_flusher();  // drain the finished thread now, not at process exit
  } else if (--ring.until_wake == 0) {
    ring.until_wake = static_cast<std::uint32_t>(drain_threshold_);
    wake_flusher();
  }
}

void Recorder::wake_flusher() noexcept {
  flusher_wake_.fetch_add(1, std::memory_order_release);
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&flusher_wake_),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

void Recorder::name_object(trace::ObjectId object, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = object_names_.try_emplace(object, name);
  if (!inserted) {
    if (it->second == name) return;  // idempotent re-registration
    it->second = name;               // last write wins
  }
  if (streaming_.load(std::memory_order_acquire) && sink_ != nullptr &&
      !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_object_name(object, name);
  }
}

void Recorder::name_thread(trace::ThreadId tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = thread_names_.try_emplace(tid, name);
  if (!inserted) {
    if (it->second == name) return;
    it->second = name;
  }
  if (streaming_.load(std::memory_order_acquire) && sink_ != nullptr &&
      !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_thread_name(tid, name);
  }
}

std::uint64_t Recorder::register_call_stack(const std::uint64_t* pcs,
                                            std::size_t depth) {
  if (depth == 0 || pcs == nullptr ||
      shutdown_.load(std::memory_order_acquire)) {
    return 0;
  }
  if (depth > trace::kMaxCallStackDepth) depth = trace::kMaxCallStackDepth;
  std::vector<std::uint64_t> chain(pcs, pcs + depth);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t next_id = call_stack_ids_.size() + 1;
  auto [it, inserted] = call_stack_ids_.try_emplace(std::move(chain), next_id);
  if (inserted && streaming_.load(std::memory_order_acquire) &&
      sink_ != nullptr && !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_call_stack(it->second, it->first.data(), it->first.size());
  }
  return it->second;
}

std::size_t Recorder::event_count() const {
  if (streaming_.load(std::memory_order_acquire)) {
    std::size_t total = 0;
    const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
      const StreamBuffer* buffer =
          stream_registry_[i].load(std::memory_order_acquire);
      if (buffer == nullptr) continue;
      total += buffer->head.load(std::memory_order_relaxed) -
               buffer->tail.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  return total;
}

trace::Trace Recorder::collect() {
  CLA_CHECK(!streaming_.load(std::memory_order_acquire),
            "collect() is invalid in streaming mode (the trace is on disk)");
  std::unique_lock<std::mutex> lock(mutex_);
  trace::Trace out;

  std::uint64_t min_ts = ~0ull;
  for (auto& buffer : buffers_) {
    // Ticks to ns, then per-thread monotone repair: rdtsc can regress
    // slightly on some VMs, and repairing before the shift below keeps it
    // from propagating an underflow.
    std::uint64_t floor = 0;
    for (auto& event : buffer->events) {
      event.ts = std::max(util::ticks_to_ns(event.ts), floor);
      floor = event.ts;
    }
    if (!buffer->events.empty()) min_ts = std::min(min_ts, buffer->events.front().ts);
  }

  for (auto& buffer : buffers_) {
    if (buffer->events.empty()) continue;
    for (auto& event : buffer->events) event.ts -= min_ts;
    if (buffer->events.back().type != trace::EventType::ThreadExit) {
      buffer->events.push_back(trace::Event{buffer->events.back().ts,
                                            trace::kNoObject, trace::kNoArg,
                                            trace::EventType::ThreadExit, 0,
                                            buffer->tid});
    }
    out.add_thread_stream(buffer->tid, std::move(buffer->events));
  }
  for (auto& [object, name] : object_names_) out.set_object_name(object, name);
  for (auto& [tid, name] : thread_names_) out.set_thread_name(tid, name);
  for (const auto& [chain, id] : call_stack_ids_) {
    out.set_call_stack(id, chain);
    for (const std::uint64_t pc : chain) {
      if (std::string sym = symbolize_pc(pc); !sym.empty()) {
        out.set_frame_symbol(pc, std::move(sym));
      }
    }
  }
  out.set_dropped_events(dropped_.load(std::memory_order_relaxed));
  lock.unlock();
  reset();  // the buffers are consumed; the next run starts at thread 0
  return out;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  object_names_.clear();
  thread_names_.clear();
  call_stack_ids_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
}

// ---- streaming mode ------------------------------------------------------

void Recorder::start_streaming(const std::string& path,
                               std::size_t buffer_events,
                               std::uint32_t version,
                               std::uint64_t ring_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  CLA_CHECK(!streaming_.load(std::memory_order_acquire),
            "recorder is already streaming");
  sink_ = std::make_unique<trace::ChunkedTraceWriter>(path, version,
                                                      ring_bytes);  // may throw
  // Twice the requested events per thread: `buffer_events` keeps its
  // meaning of half a thread's buffer capacity.
  stream_capacity_ = 2 * std::clamp<std::size_t>(buffer_events, 64, 1u << 22);
  drain_threshold_ = std::min<std::size_t>(kDrainThreshold, stream_capacity_ / 2);
  stream_path_ = path;
  stream_version_ = version;
  stream_ring_bytes_ = ring_bytes;
  flusher_stop_.store(false, std::memory_order_release);
  streaming_.store(true, std::memory_order_release);
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);  // rebind legacy TLS
  g_stream_recorder.store(this, std::memory_order_release);
  // One process-wide registration; the handlers dispatch through
  // g_stream_recorder so later recorders (unit tests) are covered too.
  std::call_once(g_atfork_once, [] {
    pthread_atfork(&Recorder::atfork_prepare, &Recorder::atfork_parent,
                   &Recorder::atfork_child);
  });
  {
    // The flusher must never appear in the trace: suppress the hooks both
    // for its pthread_create and (inside flusher_main) for its lifetime.
    ScopedInternal internal;
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

// ---- fork safety ---------------------------------------------------------

void Recorder::atfork_prepare() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->prepare_fork();
  }
}

void Recorder::atfork_parent() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->resume_parent();
  }
}

void Recorder::atfork_child() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->reinit_child();
  }
}

void Recorder::prepare_fork() {
  // Quiesce registration and the flusher so the child's snapshot of the
  // recorder (and of the trace file) is not mid-mutation. Lock order
  // matches name_object -> sink writes: mutex_ first, then the gate.
  mutex_.lock();
  flush_gate_.lock();
}

void Recorder::resume_parent() {
  flush_gate_.unlock();
  mutex_.unlock();
  if (streaming_.load(std::memory_order_acquire) &&
      !shutdown_.load(std::memory_order_acquire)) {
    warn_forks_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Recorder::reinit_child() {
  flush_gate_.unlock();
  mutex_.unlock();
  if (!streaming_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  // The flusher thread does not exist in the child; its std::thread
  // handle still claims joinable, so reset the handle in place (join or
  // assignment would be UB / terminate).
  new (&flusher_) std::thread();
  // Invalidate every inherited thread binding *before* freeing the
  // buffers they point to; only the forking thread survives, and it
  // re-registers on its next event.
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMaxStreamThreads; ++i) {
    stream_registry_[i].store(nullptr, std::memory_order_relaxed);
  }
  stream_count_.store(0, std::memory_order_relaxed);
  stream_owned_.clear();
  thread_names_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  io_dropped_.store(0, std::memory_order_relaxed);
  warn_forks_.store(0, std::memory_order_relaxed);
  // Drop the inherited sink (its close() only releases the shared fd —
  // the parent's already-flushed chunks stay untouched) and open this
  // process's own trace file. Nested forks compound the suffix.
  sink_.reset();
  stream_path_ += "." + std::to_string(::getpid());
  try {
    sink_ = std::make_unique<trace::ChunkedTraceWriter>(
        stream_path_, stream_version_, stream_ring_bytes_);
  } catch (...) {
    // Child cannot trace (unwritable dir after chroot/setuid...): record
    // nothing rather than crash the forked application.
    streaming_.store(false, std::memory_order_release);
    shutdown_.store(true, std::memory_order_release);
    return;
  }
  // Object identities (lock addresses) persist across fork; replay their
  // names so the child's trace is self-contained. Interned call stacks
  // (and their ids) persist the same way — the child's MutexAcquire
  // events keep referencing them.
  for (const auto& [object, name] : object_names_) {
    sink_->write_object_name(object, name);
  }
  for (const auto& [chain, id] : call_stack_ids_) {
    sink_->write_call_stack(id, chain.data(), chain.size());
  }
  flusher_stop_.store(false, std::memory_order_release);
  flusher_ = std::thread([this] { flusher_main(); });
}

void Recorder::flusher_main() {
  // The whole loop is recorder machinery: its flush_gate_ acquisitions
  // must not surface as trace events through the interposed hooks.
  ScopedInternal internal;
  // The ~200µs TSC calibration runs here, before the first drain converts
  // a tick, rather than on the thread that started the recorder.
  util::calibrate_clock();
  std::uint32_t prefaulted = 0;
  std::uint64_t next_sweep = util::now_ns() + kSweepNs;
  for (;;) {
    const std::uint32_t wake = flusher_wake_.load(std::memory_order_acquire);
    if (flusher_stop_.load(std::memory_order_acquire)) return;
    if (const std::uint32_t stall = util::fault::flusher_stall_ms();
        stall != 0) {
      const struct timespec ts{stall / 1000,
                               static_cast<long>(stall % 1000) * 1'000'000};
      nanosleep(&ts, nullptr);
    }
    const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
    // Fault in each new ring here so first-touch page faults land off
    // the application thread. Best effort: on a kernel without
    // MADV_POPULATE_WRITE the owner simply takes its own faults. In
    // 64 KiB steps, so a short run's exit never waits for a whole ring.
    for (; prefaulted < n; ++prefaulted) {
      const StreamBuffer* ring =
          stream_registry_[prefaulted].load(std::memory_order_acquire);
      for (std::size_t off = 0; ring != nullptr && off < ring->bytes &&
                                !flusher_stop_.load(std::memory_order_relaxed);
           off += kPrefaultStep) {
        (void)madvise(reinterpret_cast<char*>(ring->slots) + off,
                      std::min(kPrefaultStep, ring->bytes - off),
                      MADV_POPULATE_WRITE);
      }
    }
    const std::uint64_t now = util::now_ns();
    const bool sweep = now >= next_sweep;
    {
      // The gate quiesces this drain around fork(): the atfork prepare
      // handler takes it, so no writev is in flight while the file and
      // the rings get duplicated into the child.
      std::lock_guard<std::mutex> gate(flush_gate_);
      for (std::uint32_t i = 0; i < n; ++i) {
        StreamBuffer* ring = stream_registry_[i].load(std::memory_order_acquire);
        if (ring == nullptr) continue;
        const std::uint64_t pending =
            ring->head.load(std::memory_order_acquire) -
            ring->tail.load(std::memory_order_relaxed);
        if (pending >= drain_threshold_ ||
            (pending > 0 &&
             (sweep || ring->saw_exit.load(std::memory_order_relaxed)))) {
          drain_ring(*ring);
        }
      }
      // Refresh the in-place Meta/RuntimeWarnings chunks on the sweep so
      // live tailers and point-in-time snapshots see current loss counts
      // (ring retirement, IO drops) instead of zeros until process exit.
      // Both are bounded pwrites of already-allocated bytes.
      if (sweep && !shutdown_.load(std::memory_order_acquire)) {
        write_stream_status(/*clean_close=*/false);
      }
    }
    if (sweep) next_sweep = now + kSweepNs;
    // Sleep until a thread wakes us (flusher_wake_ moved past `wake`) or
    // the next sweep is due; next_sweep - now < kSweepNs < 1 s.
    const struct timespec timeout{
        0, static_cast<long>(next_sweep - std::min(now, next_sweep))};
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&flusher_wake_),
            FUTEX_WAIT_PRIVATE, wake, &timeout, nullptr, 0);
  }
}

void Recorder::drain_ring(StreamBuffer& ring) {
  ring.draining.store(true, std::memory_order_seq_cst);
  if (shutdown_.load(std::memory_order_seq_cst)) {
    // A crash handler owns the file now. Park with draining set so the
    // handler never writes a ring we may already have started.
    return;
  }
  write_pending(ring);
  ring.draining.store(false, std::memory_order_release);
}

void Recorder::write_pending(StreamBuffer& ring) {
  // Async-signal-safe: crash_spill calls this too.
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  for (std::uint64_t pos = ring.tail.load(std::memory_order_relaxed);
       pos < head;) {
    // [tail, head) is contiguous but for one wrap: at most two chunks.
    const std::uint64_t slot = pos % ring.capacity;
    const std::size_t n = std::min(head - pos, ring.capacity - slot);
    write_ticks(ring.tid, ring.slots + slot, n);
    pos += n;
  }
  ring.tail.store(head, std::memory_order_release);
}

void Recorder::write_ticks(trace::ThreadId tid, trace::Event* events,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    events[i].ts = util::ticks_to_ns(events[i].ts);  // in place
  }
  const std::size_t wrote = sink_->write_events(tid, events, n);
  if (wrote < n) {
    // The sink ran out of retry budget (disk full past the backoff
    // window): the unwritten tail is gone — count it, both in the meta
    // drop counter and in the IO-specific warning.
    dropped_.fetch_add(n - wrote, std::memory_order_relaxed);
    io_dropped_.fetch_add(n - wrote, std::memory_order_relaxed);
  }
}

void Recorder::finish_streaming() {
  if (!streaming_.load(std::memory_order_acquire)) return;
  // Teardown joins the flusher and must not record its own pthread use.
  ScopedInternal internal;
  flusher_stop_.store(true, std::memory_order_release);
  wake_flusher();
  if (flusher_.joinable()) flusher_.join();
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;

  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamBuffer* ring = stream_registry_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    write_pending(*ring);
    if (!ring->saw_exit.load(std::memory_order_relaxed)) {
      trace::Event exit_event{ring->last_ts.load(std::memory_order_relaxed),
                              trace::kNoObject, trace::kNoArg,
                              trace::EventType::ThreadExit, 0, ring->tid};
      write_ticks(ring->tid, &exit_event, 1);
    }
  }
  // Lazy frame symbolization: resolve each distinct recorded PC exactly
  // once, here on the clean-exit path — never on the lock hot path. The
  // crash-spill handler skips this entirely (dladdr allocates and is not
  // async-signal-safe); a salvaged trace simply reports hex frames.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::uint64_t> pcs;
    for (const auto& [chain, id] : call_stack_ids_) {
      pcs.insert(chain.begin(), chain.end());
    }
    for (const std::uint64_t pc : pcs) {
      if (const std::string sym = symbolize_pc(pc); !sym.empty()) {
        sink_->write_frame_symbol(pc, sym);
      }
    }
  }
  write_stream_status(/*clean_close=*/true);
  sink_->close();
}

void Recorder::write_stream_status(bool clean_close) {
  // Fixed stack array, no allocation: this also runs on the crash-spill
  // path inside fatal-signal handlers.
  trace::RuntimeWarning warnings[trace::kRuntimeWarningSlots];
  std::size_t n = 0;
  const auto add = [&](util::DiagCode code, std::uint64_t value) {
    if (value == 0 || n == trace::kRuntimeWarningSlots) return;
    warnings[n].code = static_cast<std::uint32_t>(code);
    warnings[n].value = value;
    ++n;
  };
  add(util::DiagCode::CLA_W_IO_RETRIED, sink_->io_retries());
  add(util::DiagCode::CLA_W_IO_DROPPED_EVENTS,
      io_dropped_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_PARTIAL_INTERPOSITION,
      warn_partial_interpose_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_FORKED_CHILD,
      warn_forks_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_RING_RETIRED_EVENTS, sink_->ring_retired_events());
  add(util::DiagCode::CLA_W_RING_COMPACTION_NOOP,
      sink_->ring_compaction_noops());
  if (n > 0) sink_->write_warnings(warnings, n);
  sink_->write_meta(dropped_.load(std::memory_order_relaxed) +
                        sink_->ring_retired_events(),
                    clean_close);
}

void Recorder::crash_spill() {
  // First caller wins; everyone else (including any racing recorder) sees
  // shutdown and drops. Deliberately lock-free and allocation-free: this
  // runs inside fatal-signal handlers.
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;
  if (!streaming_.load(std::memory_order_acquire) || sink_ == nullptr) return;
  // Teardown write policy: single retry, no backoff stalls, no append
  // locking — a signal handler must never wait on state an interrupted
  // thread owns.
  sink_->set_teardown();

  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamBuffer* ring = stream_registry_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    if (ring->draining.load(std::memory_order_seq_cst)) {
      continue;  // the flusher may already be writing this ring
    }
    write_pending(*ring);
  }
  write_stream_status(/*clean_close=*/false);
  // No close(): a concurrent flusher writev must not hit a recycled fd.
  // The kernel flushes and closes on process death either way.
}

}  // namespace cla::rt

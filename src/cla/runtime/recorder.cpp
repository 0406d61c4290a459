#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr (glibc); must precede the first system header
#endif

#include "cla/runtime/recorder.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>
#include <set>

#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"

namespace cla::rt {

namespace {

// Epochs are process-globally unique so a stale TLS binding can never
// false-match a different (or re-created) Recorder that happens to live
// at the same address.
std::atomic<std::uint64_t> g_binding_epoch{0};

std::uint64_t next_binding_epoch() {
  return g_binding_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

// The recorder that last opened a session (at most one per process in
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
// Rings drain once this many slots are pending (or half the ring, if
// that is smaller), and every ring drains completely every kSweepNs.
constexpr std::size_t kDrainThreshold = 4096;
constexpr std::uint64_t kSweepNs = 50'000'000;
// Events per write_events call: the flusher's batch holds two thresholds'
// worth, so a threshold drain of fused records is still one chunk; the
// crash spill's batch lives on a fatal-signal handler's stack.
constexpr std::size_t kDrainBatchEvents = 2 * kDrainThreshold;
constexpr std::size_t kSpillBatchEvents = 128;

std::size_t page_round(std::size_t bytes) {
  return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

// Unlinks the regular, singly linked file at `path` and returns an fd
// that keeps its inode alive, so the writer creates a fresh file instead
// of truncating this one in place and whoever closes the fd pays for
// freeing the old blocks. -1 when nothing was unlinked (no file, a
// symlink, a hard link, a device, no write permission, a failed unlink):
// the writer's O_TRUNC open then behaves as it always has.
int detach_replaced_file(const std::string& path) {
  struct stat named{};
  if (::lstat(path.c_str(), &named) != 0 || !S_ISREG(named.st_mode) ||
      named.st_nlink != 1) {
    return -1;
  }
  // O_WRONLY: replacing must need the same permission truncating does.
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_NOFOLLOW | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return -1;
  struct stat opened{};
  if (::fstat(fd, &opened) != 0 || opened.st_ino != named.st_ino ||
      opened.st_dev != named.st_dev || opened.st_nlink != 1 ||
      ::unlink(path.c_str()) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Recorder::ScopedInternal::ScopedInternal() noexcept : prev_(tls_internal_) {
  tls_internal_ = true;
}

Recorder::ScopedInternal::~ScopedInternal() { tls_internal_ = prev_; }

Recorder::StreamBuffer::StreamBuffer(trace::ThreadId id,
                                     std::uint32_t slots_in_ring,
                                     std::int32_t wake_every)
    // Raw storage: value-initialising the slots would zero-fill (and
    // fault in) the whole ring on the registering application thread.
    : slots(static_cast<Slot*>(
          ::operator new(page_round(slots_in_ring * sizeof(Slot)),
                         std::align_val_t{kPageBytes}))),
      capacity(slots_in_ring),
      until_wake(wake_every),
      tid(id),
      bytes(page_round(slots_in_ring * sizeof(Slot))) {}

Recorder::StreamBuffer::~StreamBuffer() {
  ::operator delete(slots, std::align_val_t{kPageBytes});
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
  if (!streaming_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  auto buffer = std::make_unique<StreamBuffer>(
      tid, static_cast<std::uint32_t>(stream_capacity_),
      static_cast<std::int32_t>(drain_threshold_));
  StreamBuffer* sb = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t slot = stream_count_.load(std::memory_order_relaxed);
    if (slot >= kMaxStreamThreads) return;  // fail soft; records will drop
    stream_owned_.push_back(std::move(buffer));
    stream_registry_[slot] = sb;
    stream_count_.store(slot + 1, std::memory_order_release);
  }
  wake_flusher();  // it faults in the new ring's head off this thread
  // Arm the per-thread exit destructor: if this thread is cancelled or
  // exits without reaching thread_exit(), the destructor records the
  // missing ThreadExit (value is a non-null sentinel; the destructor
  // resolves the recorder through g_stream_recorder).
  std::call_once(g_thread_exit_key_once, [] {
    pthread_key_create(&g_thread_exit_key, cla_thread_exit_destructor);
  });
  pthread_setspecific(g_thread_exit_key, reinterpret_cast<void*>(1));
  tls_ = Binding{this, sb, epoch_.load(std::memory_order_relaxed)};
  record(trace::EventType::ThreadStart,
         parent == trace::kNoThread ? trace::kNoObject
                                    : static_cast<trace::ObjectId>(parent));
}

trace::ThreadId Recorder::ensure_current_thread() {
  if (StreamBuffer* ring = bound_ring()) return ring->tid;
  const trace::ThreadId tid = allocate_thread();
  bind_current_thread(tid, trace::kNoThread);
  return tid;
}

Recorder::StreamBuffer* Recorder::bound_ring() const noexcept {
  const Binding& binding = tls_;
  return binding.recorder == this &&
                 binding.epoch == epoch_.load(std::memory_order_relaxed)
             ? binding.ring
             : nullptr;
}

void Recorder::end_recording() noexcept {
  // Async-signal-safe (crash_spill): one lock-free fetch_add and a store.
  // Every binding goes stale, so later events take append_slow, which
  // sees shutdown_ and drops.
  epoch_.store(next_binding_epoch(), std::memory_order_seq_cst);
}

void Recorder::thread_exit() {
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::thread_exit_on_destroy() noexcept {
  // A bound ring means an open session; shutdown_ covers the moment
  // before a finish or crash spill invalidates the bindings.
  if (shutdown_.load(std::memory_order_acquire)) return;
  StreamBuffer* ring = bound_ring();
  if (ring == nullptr || ring->saw_exit.load(std::memory_order_relaxed)) {
    return;
  }
  // A fresh timestamp (not the last event's): the thread died *after* its
  // last recorded event, and the gap is real time its open critical
  // sections were held.
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::note_partial_interposition() noexcept {
  warn_partial_interpose_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::append_slow(std::uint32_t kind, std::uint64_t ts,
                           trace::ObjectId object, std::uint64_t arg) {
  if (streaming_.load(std::memory_order_acquire) &&
      !shutdown_.load(std::memory_order_acquire)) {
    StreamBuffer* ring = bound_ring();
    if (ring == nullptr) {
      ensure_current_thread();
      ring = bound_ring();
    }
    if (ring != nullptr) {
      stream_append(*ring, kind, ts, object, arg);
      return;
    }
  }
  // No open session, or binding failed (registry full, or bound during
  // teardown): fail soft.
  dropped_.fetch_add(events_in(kind), std::memory_order_relaxed);
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
  if (sink_ != nullptr && !shutdown_.load(std::memory_order_acquire)) {
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
  if (sink_ != nullptr && !shutdown_.load(std::memory_order_acquire)) {
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
  if (inserted && sink_ != nullptr &&
      !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_call_stack(it->second, it->first.data(), it->first.size());
  }
  return it->second;
}

std::size_t Recorder::event_count() const {
  std::size_t total = 0;
  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    const StreamBuffer* ring = stream_registry_[i];
    total += ring->head.load(std::memory_order_relaxed) -
             ring->tail.load(std::memory_order_relaxed);
  }
  return total;
}

void Recorder::clear_session(bool keep_objects) {
  // Invalidate every thread binding *before* freeing the rings they
  // point to; a thread re-registers on its next event.
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
  stream_count_.store(0, std::memory_order_relaxed);
  stream_owned_.clear();
  thread_names_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  io_dropped_.store(0, std::memory_order_relaxed);
  warn_forks_.store(0, std::memory_order_relaxed);
  if (keep_objects) return;
  object_names_.clear();
  call_stack_ids_.clear();
  warn_partial_interpose_.store(0, std::memory_order_relaxed);
}

// ---- sessions --------------------------------------------------------------

void Recorder::start_streaming(const std::string& path,
                               std::size_t buffer_events,
                               std::uint32_t version,
                               std::uint64_t ring_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool rearm = finished_.load(std::memory_order_acquire);
  CLA_CHECK(rearm || !streaming_.load(std::memory_order_acquire),
            "recorder is already streaming");
  CLA_CHECK(rearm || !shutdown_.load(std::memory_order_acquire),
            "recorder was shut down by a crash spill");
  // Replace a previous trace instead of truncating it here: truncation
  // frees the old file's blocks on this thread, often the target's main
  // thread before main(). The flusher closes the last reference instead.
  const int replaced = detach_replaced_file(path);
  try {
    sink_ = std::make_unique<trace::ChunkedTraceWriter>(path, version,
                                                        ring_bytes);
  } catch (...) {
    if (replaced >= 0) ::close(replaced);
    throw;
  }
  replaced_fd_.store(replaced, std::memory_order_relaxed);
  if (rearm) {
    clear_session(/*keep_objects=*/false);
    finished_.store(false, std::memory_order_relaxed);
    shutdown_.store(false, std::memory_order_release);
  }
  // Twice the requested events per thread: `buffer_events` keeps its
  // meaning of half a thread's buffer capacity.
  stream_capacity_ = 2 * std::clamp<std::size_t>(buffer_events, 64, 1u << 22);
  drain_threshold_ = std::min<std::size_t>(kDrainThreshold, stream_capacity_ / 2);
  drain_batch_.reset(new std::byte[kDrainBatchEvents * sizeof(trace::Event)]);
  stream_path_ = path;
  stream_version_ = version;
  stream_ring_bytes_ = ring_bytes;
  flusher_stop_.store(false, std::memory_order_release);
  streaming_.store(true, std::memory_order_release);
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
  // Only the forking thread survives; it re-registers on its next event.
  clear_session(/*keep_objects=*/true);
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
  // a tick, rather than on the thread that started the recorder; so does
  // the release of a replaced trace's inode.
  util::calibrate_clock();
  if (const int fd = replaced_fd_.exchange(-1, std::memory_order_relaxed);
      fd >= 0) {
    ::close(fd);
  }
  auto* batch = reinterpret_cast<trace::Event*>(drain_batch_.get());
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
    for (std::uint32_t i = 0; i < n; ++i) populate_ahead(*stream_registry_[i]);
    const std::uint64_t now = util::now_ns();
    const bool sweep = now >= next_sweep;
    {
      // The gate quiesces this drain around fork(): the atfork prepare
      // handler takes it, so no writev is in flight while the file and
      // the rings get duplicated into the child.
      std::lock_guard<std::mutex> gate(flush_gate_);
      for (std::uint32_t i = 0; i < n; ++i) {
        StreamBuffer* ring = stream_registry_[i];
        const std::uint64_t pending =
            ring->head.load(std::memory_order_acquire) -
            ring->tail.load(std::memory_order_relaxed);
        if (pending >= drain_threshold_ ||
            (pending > 0 &&
             (sweep || ring->saw_exit.load(std::memory_order_relaxed)))) {
          drain_ring(*ring, batch);
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

void Recorder::populate_ahead(StreamBuffer& ring) noexcept {
  // Fault in the ring about two drain thresholds past its owner's head,
  // so first-touch page faults land here and not on the application
  // thread, while a thread that records little keeps most of its ring
  // untouched. Best effort: on a kernel without MADV_POPULATE_WRITE the
  // owner simply takes its own faults. In 64 KiB steps that stop when the
  // flusher is told to, so a short run's exit never waits on them.
  // Only whole steps below the target: the owner wakes us again long
  // before it reaches the end of the populated part.
  const std::uint64_t ahead =
      ring.head.load(std::memory_order_relaxed) + 2 * drain_threshold_;
  const std::size_t want =
      ahead >= ring.capacity ? ring.bytes : ahead * sizeof(Slot);
  while (ring.populated < ring.bytes &&
         !flusher_stop_.load(std::memory_order_relaxed)) {
    const std::size_t len = std::min(kPrefaultStep, ring.bytes - ring.populated);
    if (ring.populated + len > want) break;
    (void)madvise(reinterpret_cast<char*>(ring.slots) + ring.populated, len,
                  MADV_POPULATE_WRITE);
    ring.populated += len;
  }
}

void Recorder::drain_ring(StreamBuffer& ring, trace::Event* batch) {
  ring.draining.store(true, std::memory_order_seq_cst);
  if (shutdown_.load(std::memory_order_seq_cst)) {
    // A crash handler owns the file now. Park with draining set so the
    // handler never writes a ring we may already have started.
    return;
  }
  write_pending(ring, batch, kDrainBatchEvents);
  ring.draining.store(false, std::memory_order_release);
}

void Recorder::write_pending(StreamBuffer& ring, trace::Event* batch,
                             std::size_t batch_events) {
  // Async-signal-safe: crash_spill calls this too. Records are published
  // whole, so [tail, head) holds complete records only.
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  std::uint64_t pos = ring.tail.load(std::memory_order_relaxed);
  std::uint32_t at = static_cast<std::uint32_t>(pos % ring.capacity);
  const auto next = [&ring, &at]() -> const Slot& {
    const Slot& slot = ring.slots[at];
    if (++at == ring.capacity) at = 0;
    return slot;
  };
  const double factor = util::ticks_per_ns();
  std::size_t n = 0;
  while (pos < head) {
    const Slot& first = next();
    const std::uint64_t code = first.word >> kCodeShift;
    const auto kind =
        static_cast<std::uint32_t>((first.word >> kKindShift) & kKindMask);
    trace::ObjectId object = first.word & kObjectMask;
    std::uint64_t arg = code == kNoArgCode ? trace::kNoArg : code - kArgBias;
    if (code == kWideCode) {
      const Slot& second = next();
      object = second.ts;
      arg = second.word;
    }
    pos += code == kWideCode ? 2 : 1;
    const std::uint64_t ts = util::ticks_to_ns(first.ts, factor);
    if (kind == kFusedAcquire) {
      batch[n++] = trace::Event{ts, object, arg,
                                trace::EventType::MutexAcquire, 0, ring.tid};
      batch[n++] = trace::Event{ts, object, 0,
                                trace::EventType::MutexAcquired, 0, ring.tid};
    } else {
      batch[n++] = trace::Event{ts, object, arg,
                                static_cast<trace::EventType>(kind), 0,
                                ring.tid};
    }
    ring.last_ns = ts;
    if (n + 2 > batch_events || pos >= head) {
      write_batch(ring.tid, batch, n);
      n = 0;
      ring.tail.store(pos, std::memory_order_release);
    }
  }
}

void Recorder::write_batch(trace::ThreadId tid, const trace::Event* events,
                           std::size_t n) {
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
  end_recording();

  auto* batch = reinterpret_cast<trace::Event*>(drain_batch_.get());
  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamBuffer* ring = stream_registry_[i];
    write_pending(*ring, batch, kDrainBatchEvents);
    if (!ring->saw_exit.load(std::memory_order_relaxed)) {
      const trace::Event exit_event{ring->last_ns, trace::kNoObject,
                                    trace::kNoArg, trace::EventType::ThreadExit,
                                    0, ring->tid};
      write_batch(ring->tid, &exit_event, 1);
    }
  }
  // Lazy frame symbolization: resolve each distinct recorded PC exactly
  // once, here on the clean-exit path — never on the lock hot path. The
  // crash-spill handler skips this entirely (dladdr allocates and is not
  // async-signal-safe); a salvaged trace simply reports hex frames.
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
  write_stream_status(/*clean_close=*/true);
  sink_->close();
  finished_.store(true, std::memory_order_release);  // re-arms start_streaming
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
  // runs inside fatal-signal handlers. A spill between sessions ends
  // recording for good too: no later start_streaming() re-arms.
  finished_.store(false, std::memory_order_seq_cst);
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;
  end_recording();
  if (!streaming_.load(std::memory_order_acquire) || sink_ == nullptr) return;
  // Teardown write policy: single retry, no backoff stalls, no append
  // locking — a signal handler must never wait on state an interrupted
  // thread owns.
  sink_->set_teardown();

  trace::Event batch[kSpillBatchEvents];
  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamBuffer* ring = stream_registry_[i];
    if (ring->draining.load(std::memory_order_seq_cst)) {
      continue;  // the flusher may already be writing this ring
    }
    write_pending(*ring, batch, kSpillBatchEvents);
  }
  write_stream_status(/*clean_close=*/false);
  // No close(): a concurrent flusher writev must not hit a recycled fd.
  // The kernel flushes and closes on process death either way.
}

}  // namespace cla::rt

// Event recorder — the in-process half of the instrumentation module
// (paper §IV.A).
//
// Threads register once and then append events to a thread-local ring
// with at most one raw clock read (util::ticks()) per MAGIC() point; no
// locks are taken on the hot path. Ticks become nanoseconds only when a
// ring is drained, with the one calibrated factor (util::ticks_to_ns),
// so traces on disk are in ns.
//
// An uncontended mutex acquisition — the common case — is one record:
// record_acquired_at() stands for MutexAcquire + MutexAcquired (arg 0) at
// one timestamp, and every drain path expands it back into those two
// events, so readers never see the difference.
//
// One store: a recording session (start_streaming .. finish_streaming)
// gives each thread one bounded SPSC ring of 16-byte slots. A slot holds
// the raw ticks and one packed word: the object in the low 48 bits, the
// event kind (or "fused acquisition") and a small-arg code (kNoArg, or
// an arg up to 1021). A record whose object or arg does not fit
// (kNoObject, a condvar's mutex address, a large episode or stack id)
// takes a second slot holding both in full; the pair may straddle the
// wrap and is published with the same single `head` store. The drainer
// decodes the pending range [tail, head) into trace events, writes them
// to a ChunkedTraceWriter (`.clat` v2/v3 chunks) and advances `tail`, so
// app threads never block on IO. A full ring drops and counts the
// record's events instead of blocking or growing. The drainer is a
// dedicated flusher thread that sleeps on a futex. A thread wakes it
// each time it has filled another drain threshold's worth of slots
// (4096, or half the ring if that is less), and when it registers or
// exits. On a wake the flusher drains every ring holding at least the
// threshold, or whose thread has exited; every ~50 ms it drains every
// ring completely and refreshes the Meta/RuntimeWarnings chunks.
// crash_spill() writes every ring not mid-drain with only
// async-signal-safe operations (decoding through a fixed stack batch),
// so a fatal-signal handler can save the run's tail; finish_streaming()
// is the clean-exit path (wakes and stops the flusher, drains the rest,
// synthesizes missing ThreadExit events and a clean-close Meta chunk).
// Outside a session the recorder drops and counts what it is handed.
//
// A clean finish re-arms the recorder: the next start_streaming() opens
// a fresh session, which is how one process records several runs; a
// crash spill shuts it down for good.
//
// The recorder's fixed costs stay off the application's threads and its
// start-up: ring storage is allocated raw (never zero-filled) and the
// flusher faults each ring in with MADV_POPULATE_WRITE only about two
// drain thresholds ahead of its owner, advancing on every wake, so a
// thread that records little never pays for a whole ring. The flusher,
// not the constructor, runs the TSC calibration before its first drain,
// and it closes the replaced trace file (see start_streaming) so the old
// inode is freed on its clock.
//
// The per-event path is inline and makes no call: the thread-local ring
// lookup, the space check, one or two slot stores and the `head` release
// store. Shutdown and re-targeting invalidate every thread's binding (the
// epoch), so the flags are only read on the slow path.
//
// Recording never aborts the host application: if a thread cannot be
// bound (registration races teardown) or a ring has no room, the event
// is dropped and counted; the count travels in the trace header.
//
// Hostile-process survival:
//
//  * fork(): pthread_atfork handlers quiesce the flusher and registration
//    around the fork. The parent resumes untouched (and counts the fork
//    in a CLA_W_FORKED_CHILD warning); the child — which inherits the
//    rings but not the flusher thread — drops all inherited bindings
//    and re-targets a fresh `<path>.<pid>` trace file, so parent and
//    child each produce one valid stream with no duplicated events.
//
//  * pthread_cancel / pthread_exit: a TSD destructor records the missing
//    ThreadExit when a bound thread dies without reaching thread_exit(),
//    closing its open critical sections on disk instead of leaving a
//    dangling lock-held stream for the repair pass.
//
//  * Write failures: the sink retries/backs off internally; events that
//    still fail to land are accounted to dropped_events() and surfaced
//    through the trace's RuntimeWarnings chunk (CLA_W_IO_*).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cla/trace/trace_io.hpp"
#include "cla/util/clock.hpp"
#include "cla/util/faultinject.hpp"

namespace cla::rt {

class Recorder {
 public:
  Recorder();
  ~Recorder();  // stops the flusher and closes the stream if still open
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Process-wide recorder used by the instrumented pthread wrappers and
  /// the LD_PRELOAD interposer. Never destroyed: freeing its rings at
  /// process exit would only make the exiting thread wait on munmap. An
  /// atexit handler still finishes a stream left open.
  static Recorder& instance() {
    static Recorder* const recorder = [] {
      auto* created = new Recorder;
      std::atexit([] { instance().finish_streaming(); });
      return created;
    }();
    return *recorder;
  }

  /// True while the calling thread is executing recorder-internal
  /// machinery (the flusher loop, atfork handlers, flusher re-spawn). The
  /// interposer consults this and disarms its hooks, so the recorder's
  /// own pthread use — flush_gate_, std::thread creation — never leaks
  /// synthetic threads or recorder-internal locks into the trace.
  static bool current_thread_internal() noexcept { return tls_internal_; }

  /// RAII marker for recorder-internal execution on the calling thread.
  class ScopedInternal {
   public:
    ScopedInternal() noexcept;
    ~ScopedInternal();
    ScopedInternal(const ScopedInternal&) = delete;
    ScopedInternal& operator=(const ScopedInternal&) = delete;

   private:
    bool prev_;
  };

  /// Reserves a thread id for a thread that is about to start (called by
  /// the creating thread so ThreadCreate can reference the child).
  trace::ThreadId allocate_thread();

  /// Binds the calling OS thread to `tid` and records ThreadStart.
  /// `parent` is the creating thread (kNoThread for the initial thread).
  void bind_current_thread(trace::ThreadId tid, trace::ThreadId parent);

  /// Registers the calling thread if it is unknown (allocates an id with
  /// no recorded parent) and returns its id. Cheap when already bound.
  trace::ThreadId ensure_current_thread();

  /// Records ThreadExit for the calling thread.
  void thread_exit();

  /// TSD-destructor hook: records ThreadExit for the calling thread if it
  /// is bound, streaming and has not recorded one — the cancel/implicit-
  /// exit cleanup path. No-op otherwise.
  void thread_exit_on_destroy() noexcept;

  /// Counts one interposed call that hit an unresolved real symbol
  /// (surfaced as a CLA_W_PARTIAL_INTERPOSITION runtime warning).
  void note_partial_interposition() noexcept;

  /// Appends an event for the calling thread, timestamped util::ticks().
  void record(trace::EventType type, trace::ObjectId object,
              std::uint64_t arg = trace::kNoArg) {
    append(static_cast<std::uint32_t>(type), util::ticks(), object, arg);
  }

  /// Records with an explicit timestamp in raw util::ticks() (used when
  /// the timestamp must be taken before other bookkeeping, e.g. a lock's
  /// wait start). Converted to ns when drained. Fails soft:
  /// if no session is open, the thread cannot be bound or its ring is
  /// full, the event is dropped and dropped_events() incremented — never
  /// UB, never a throw.
  void record_at(trace::EventType type, std::uint64_t ts,
                 trace::ObjectId object, std::uint64_t arg = trace::kNoArg) {
    append(static_cast<std::uint32_t>(type), ts, object, arg);
  }

  /// Records an uncontended acquisition of `mutex` at `ts` (raw ticks) as
  /// one record: it reaches the trace as MutexAcquire (arg = `stack`, the
  /// interned call-stack id, or kNoArg) followed by MutexAcquired (arg 0)
  /// at that same timestamp. A dropped one counts two events.
  void record_acquired_at(std::uint64_t ts, trace::ObjectId mutex,
                          std::uint64_t stack = trace::kNoArg) {
    append(kFusedAcquire, ts, mutex, stack);
  }

  /// Attaches a name (last write wins; re-registering is idempotent).
  void name_object(trace::ObjectId object, std::string name);
  void name_thread(trace::ThreadId tid, std::string name);

  /// Interns an acquisition call stack (`pcs[0..depth)`, innermost frame
  /// first) and returns its stable id (>= 1); identical chains dedupe to
  /// one id, and the first sighting in a session emits a CallStacks
  /// chunk. Takes mutex_ — callers (the interposer's lock hooks) are on a
  /// slow path already (about to block on a mutex) and must not hold
  /// recorder-internal locks. Returns 0 (= "no stack") when depth is 0 or
  /// the recorder has shut down.
  std::uint64_t register_call_stack(const std::uint64_t* pcs,
                                    std::size_t depth);

  /// Events dropped in this session (at record time or by failed writes).
  std::uint64_t dropped_events() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Occupied ring slots not yet drained (one per record, two for a wide
  /// one): the measure of how close the rings are to dropping.
  std::size_t event_count() const;

  // ---- recording sessions ----

  /// Opens a session: opens `path` as a chunked trace (v2 raw chunks or
  /// compact v3 per `version`) and starts the flusher thread.
  /// Every thread's ring holds 2 x `buffer_events` slots (clamped to
  /// [64, 1<<22] first), 32 bytes per requested event. A non-zero
  /// `ring_bytes` caps the trace's on-disk size: the writer retires the
  /// oldest complete chunks as counted loss (CLA_W_RING_RETIRED_EVENTS)
  /// when the file outgrows the cap. An existing regular file at `path`
  /// with one link is unlinked and replaced rather than truncated in
  /// place, and the flusher closes the last reference to it, so freeing
  /// the old trace's blocks stays off the calling thread; any other file
  /// (a symlink, a hard link, a device) is truncated as before. Must be
  /// called before any thread registers events to be streamed. After a
  /// clean finish_streaming() it opens a fresh session: thread ids restart
  /// at 0, and the names, call stacks and counters of the finished one
  /// are forgotten (no thread of it may still be recording). Throws
  /// cla::util::Error if a session is open, crash_spill() ran, the file
  /// cannot be opened or `version` is not a chunked format.
  void start_streaming(const std::string& path, std::size_t buffer_events,
                       std::uint32_t version = trace::kTraceVersion,
                       std::uint64_t ring_bytes = 0);

  /// True once a session has opened, also after it finished; false again
  /// only in a forked child whose own trace file could not be opened.
  bool streaming() const noexcept {
    return streaming_.load(std::memory_order_acquire);
  }

  /// Path of the stream this process is writing (the fork handler gives
  /// each child its own `<path>.<pid>`). Empty before the first session.
  const std::string& stream_path() const noexcept { return stream_path_; }

  /// Clean-exit path: stops the flusher, drains every ring, synthesizes
  /// missing ThreadExit events, writes the clean-close Meta chunk and
  /// closes the file. Later records drop until the next start_streaming().
  /// Idempotent.
  void finish_streaming();

  /// Best-effort crash-time spill; async-signal-safe (no locks, no
  /// allocation, no iostreams). Writes every ring not mid-drain plus a
  /// Meta chunk without the clean flag, then flags the recorder shut down
  /// so subsequent record() calls drop. Safe to call from a fatal-signal
  /// handler; also the `_exit` interposition path. Idempotent — the first
  /// caller wins, later callers return immediately.
  void crash_spill();

  /// True once the session ended: finish_streaming() (until the next
  /// start_streaming()) or crash_spill() (for good).
  bool shut_down() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  // ---- ring slot format ----
  //
  // A record's first slot holds the raw ticks and a packed word:
  //   bits  0..47  object (when it fits)
  //   bits 48..53  kind: a trace::EventType value, or kFusedAcquire
  //   bits 54..63  arg code: kWideCode, kNoArgCode, or arg + kArgBias
  // With kWideCode the next slot holds the object and the arg in full.
  struct Slot {
    std::uint64_t ts;    // raw ticks; a wide record's second slot: object
    std::uint64_t word;  // packed as above; a second slot: arg
  };
  static constexpr unsigned kKindShift = 48;
  static constexpr unsigned kCodeShift = 54;
  static constexpr std::uint64_t kObjectMask = (1ull << kKindShift) - 1;
  static constexpr std::uint64_t kKindMask =
      (1ull << (kCodeShift - kKindShift)) - 1;
  static constexpr std::uint64_t kWideCode = 0;
  static constexpr std::uint64_t kNoArgCode = 1;
  static constexpr std::uint64_t kArgBias = 2;
  static constexpr std::uint64_t kMaxSmallArg =
      (1ull << (64 - kCodeShift)) - 1 - kArgBias;  // 1021
  static constexpr std::uint32_t kFusedAcquire =
      static_cast<std::uint32_t>(kKindMask);
  static_assert(static_cast<std::uint32_t>(trace::EventType::PhaseEnd) <
                    kFusedAcquire,
                "every EventType must fit the slot's kind field");

  /// A thread's ring: single producer (the owning thread), single
  /// drainer at a time (the flusher; finish_streaming and crash_spill once
  /// it is stopped or parked). The owner stores a record's one or two
  /// slots at `head` and publishes the new head with release; the drainer
  /// decodes [tail, head) and then advances `tail`. All hand-off is via
  /// the atomics, so the crash handler can read any ring without locks.
  struct alignas(64) StreamBuffer {
    StreamBuffer(trace::ThreadId id, std::uint32_t slots_in_ring,
                 std::int32_t wake_every);
    ~StreamBuffer();

    // Owner side: everything the per-event path touches, one cache line.
    Slot* const slots;
    const std::uint32_t capacity;
    std::uint32_t head_slot = 0;
    std::atomic<std::uint64_t> head{0};
    std::uint64_t tail_cache = 0;  // the owner reads `tail` only when full
    std::uint64_t clamp_ts = 0;    // per-thread monotonic timestamp repair
    std::int32_t until_wake;       // slots left before the next flusher wake
    std::atomic<bool> saw_exit{false};
    const trace::ThreadId tid;

    // Drainer side.
    alignas(64) std::atomic<std::uint64_t> tail{0};
    std::atomic<bool> draining{false};
    const std::size_t bytes;
    std::uint64_t last_ns = 0;     // last drained timestamp, for exit synthesis
    std::size_t populated = 0;     // bytes the flusher has faulted in
  };

  // The calling thread's ring: valid only while `recorder` is this and
  // `epoch` is the recorder's current one. Aggregate, so the thread-local
  // below is constant-initialized and read without a TLS wrapper call.
  struct Binding {
    Recorder* recorder;
    StreamBuffer* ring;
    std::uint64_t epoch;
  };
  static constinit inline thread_local Binding tls_{};
  // Set while the current thread runs recorder-internal machinery; the
  // interposer's HookGuard disarms on it (see current_thread_internal()).
  static constinit inline thread_local bool tls_internal_ = false;

  // The per-event path. A thread bound to this recorder's current epoch
  // stores into its ring inline; everything else (a thread's first event,
  // no open session, shutdown, a stale binding) goes through append_slow.
  // always_inline: in a large caller (the interposer's lock hooks) the
  // compiler would otherwise emit a call here.
  [[gnu::always_inline]] void append(std::uint32_t kind, std::uint64_t ts,
                                     trace::ObjectId object,
                                     std::uint64_t arg) {
    if (util::fault::enabled()) {
      for (auto n = events_in(kind); n > 0; --n) util::fault::on_event();
    }
    const Binding& binding = tls_;
    if (binding.ring != nullptr && binding.recorder == this &&
        binding.epoch == epoch_.load(std::memory_order_relaxed)) {
      stream_append(*binding.ring, kind, ts, object, arg);
      return;
    }
    append_slow(kind, ts, object, arg);
  }

  [[gnu::always_inline]] void stream_append(StreamBuffer& ring,
                                            std::uint32_t kind,
                                            std::uint64_t ts,
                                            trace::ObjectId object,
                                            std::uint64_t arg) {
    // Per-thread monotone clamp at record time (on ticks: the drainer's
    // conversion is monotone): chunks already on disk are never repaired.
    if (ts < ring.clamp_ts) {
      ts = ring.clamp_ts;
    } else {
      ring.clamp_ts = ts;
    }
    const std::uint64_t code = arg == trace::kNoArg   ? kNoArgCode
                               : arg <= kMaxSmallArg ? arg + kArgBias
                                                     : kWideCode;
    const bool narrow = code != kWideCode && object <= kObjectMask;
    const std::uint32_t need = narrow ? 1 : 2;
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    if (ring.capacity - (head - ring.tail_cache) < need) {
      ring.tail_cache = ring.tail.load(std::memory_order_acquire);
      if (ring.capacity - (head - ring.tail_cache) < need) {
        // Flusher starved: the ring is full. Drop instead of blocking.
        dropped_.fetch_add(events_in(kind), std::memory_order_relaxed);
        return;
      }
    }
    Slot& first = ring.slots[ring.head_slot];
    if (++ring.head_slot == ring.capacity) ring.head_slot = 0;
    first.ts = ts;
    if (narrow) {
      first.word = code << kCodeShift |
                   static_cast<std::uint64_t>(kind) << kKindShift | object;
    } else {
      first.word = kWideCode << kCodeShift |
                   static_cast<std::uint64_t>(kind) << kKindShift;
      Slot& second = ring.slots[ring.head_slot];
      if (++ring.head_slot == ring.capacity) ring.head_slot = 0;
      second.ts = object;
      second.word = arg;
    }
    ring.head.store(head + need, std::memory_order_release);
    if (kind == static_cast<std::uint32_t>(trace::EventType::ThreadExit)) {
      ring.saw_exit.store(true, std::memory_order_relaxed);
      wake_flusher();  // drain the finished thread now, not at process exit
    } else if ((ring.until_wake -= static_cast<std::int32_t>(need)) <= 0) {
      ring.until_wake = static_cast<std::int32_t>(drain_threshold_);
      wake_flusher();
    }
  }

  static std::uint64_t events_in(std::uint32_t kind) noexcept {
    return kind == kFusedAcquire ? 2 : 1;
  }
  void append_slow(std::uint32_t kind, std::uint64_t ts,
                   trace::ObjectId object, std::uint64_t arg);
  StreamBuffer* bound_ring() const noexcept;
  void end_recording() noexcept;  // invalidates every thread's binding
  // Forgets the session's threads (bindings, rings, ids, thread names)
  // and zeroes its loss counters; `keep_objects` keeps the object names
  // and call stacks, which a forked child replays into its own trace.
  void clear_session(bool keep_objects);
  void wake_flusher() noexcept;
  void flusher_main();
  void populate_ahead(StreamBuffer& ring) noexcept;
  void drain_ring(StreamBuffer& ring, trace::Event* batch);
  // Decodes [tail, head) through `batch` (room for `batch_events`, at
  // least two) and writes it in ns, one write_events call per batch.
  void write_pending(StreamBuffer& ring, trace::Event* batch,
                     std::size_t batch_events);
  // Writes `n` decoded events and counts the ones the sink lost.
  void write_batch(trace::ThreadId tid, const trace::Event* events,
                   std::size_t n);
  void write_stream_status(bool clean_close);  // warnings + Meta chunks

  // pthread_atfork trampolines (dispatch to the streaming recorder).
  static void atfork_prepare();
  static void atfork_parent();
  static void atfork_child();
  void prepare_fork();
  void resume_parent();
  void reinit_child();

  // Read on every event: a cache line of their own, which neither the
  // mutexes nor the drop counter write to.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  std::size_t drain_threshold_ = 0;  // slots

  alignas(64) std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  // guards registration and session changes
  // Held by the flusher around each drain sweep so the fork handler can
  // quiesce in-flight IO (lock order: mutex_ then flush_gate_).
  std::mutex flush_gate_;
  std::atomic<trace::ThreadId> next_tid_{0};
  std::map<trace::ObjectId, std::string> object_names_;
  std::map<trace::ThreadId, std::string> thread_names_;
  // Call-stack intern table: pc chain -> id (ids start at 1, streamed as
  // CallStacks chunks; replayed to the child's sink after fork).
  std::map<std::vector<std::uint64_t>, std::uint64_t> call_stack_ids_;

  // Streaming state. The registry is a fixed array so the crash handler
  // can walk it without taking mutex_: entry i is written (under mutex_)
  // before stream_count_ is release-published past it and never changes
  // while i < stream_count_, so readers that acquire the count read the
  // entries below it plainly. Entries past the count are never read,
  // which is why the array is left uninitialized: zeroing it would fault
  // in 32 KiB on the thread that creates the recorder.
  static constexpr std::size_t kMaxStreamThreads = 4096;
  std::atomic<bool> streaming_{false};
  std::atomic<bool> shutdown_{false};
  // Set by a clean finish, so start_streaming() may open the next session.
  std::atomic<bool> finished_{false};
  std::atomic<bool> flusher_stop_{false};
  std::atomic<std::uint32_t> flusher_wake_{0};  // futex word; bumped per wake
  std::size_t stream_capacity_ = 0;  // ring slots per thread
  std::string stream_path_;
  std::uint32_t stream_version_ = trace::kTraceVersion;
  std::uint64_t stream_ring_bytes_ = 0;
  std::atomic<std::uint64_t> io_dropped_{0};   // events lost to failed writes
  std::atomic<std::uint64_t> warn_partial_interpose_{0};
  std::atomic<std::uint64_t> warn_forks_{0};
  // The replaced trace file, held open until the flusher closes it.
  std::atomic<int> replaced_fd_{-1};
  std::unique_ptr<trace::ChunkedTraceWriter> sink_;
  // Decode batch of the flusher and finish_streaming (never concurrent);
  // raw, so only the part a drain uses is ever faulted in.
  std::unique_ptr<std::byte[]> drain_batch_;
  std::vector<std::unique_ptr<StreamBuffer>> stream_owned_;
  StreamBuffer* stream_registry_[kMaxStreamThreads];
  std::atomic<std::uint32_t> stream_count_{0};
  std::thread flusher_;
};

}  // namespace cla::rt

// Versioned binary trace file format (".clat").
//
// v1 layout (little-endian), legacy and read-only (no writer emits it):
//   magic "CLAT" | u32 version=1 | u32 thread_count
//   u32 object_name_count | { u64 object_id, u32 len, bytes }...
//   u32 thread_name_count | { u32 tid, u32 len, bytes }...
//   per thread: u32 tid | u64 event_count | event_count * 32-byte Event
//
// v2 layout (the default write format) is crash-resilient: after the
// 8-byte preamble (magic + u32 version=2) the file is a pure append-only
// sequence of individually checksummed chunks:
//
//   chunk: "CLCH" | u32 kind | u32 payload_bytes | u32 crc32(payload) | payload
//
//   kind 1 ObjectNames: u32 count | { u64 object_id, u32 len, bytes }...
//   kind 2 ThreadNames: u32 count | { u32 tid, u32 len, bytes }...
//   kind 3 Events:      u32 tid | u32 count | count * 32-byte Event
//   kind 4 Meta:        u64 dropped_events | u32 flags (bit0 = clean close)
//   kind 6 RuntimeWarnings: u32 count | count * { u32 code, u64 value }
//          (code 0 = empty slot; codes are cla::util::DiagCode values,
//          e.g. CLA_W_IO_DROPPED_EVENTS)
//   kind 7 CallStacks:   u32 count | count * { u64 stack_id, u32 depth,
//          depth * u64 pc } — dedup'd acquisition call-stack table.
//          Stack ids start at 1 (0 = "no stack"); MutexAcquire events
//          reference them through their otherwise-unused `arg` field.
//          Frames are ordered innermost (the lock call's caller) first.
//   kind 8 FrameSymbols: u32 count | count * { u64 pc, u32 len, bytes } —
//          program counter -> symbol string, resolved by the recording
//          process (dladdr at clean close; raw PCs are meaningless in any
//          other address space). Both kinds apply last-write-wins and are
//          skipped by pre-callsite readers, so traces without them load
//          byte-identically to v2/v3 files written before kind 7/8 existed.
//
// Chunks carry no global counts or offsets, so a writer can append them
// incrementally as per-thread buffers fill and a reader can recover every
// intact prefix of a torn file (see salvage.hpp). A clean writer close
// records a Meta chunk with the clean flag set; its absence marks a
// crashed or truncated recording. Duplicate name entries resolve
// last-write-wins (Meta and RuntimeWarnings likewise: the last chunk
// read wins); a thread's Events chunks must appear in timestamp order
// relative to each other (the per-thread buffers flush in order).
//
// ChunkedTraceWriter reserves a RuntimeWarnings chunk and a Meta chunk
// directly after the preamble at construction time and REWRITES THEM IN
// PLACE (pwrite) on close or crash spill. In-place rewrites of already
// allocated file bytes need no new disk blocks, so the drop counter and
// the warning trailer survive even a persistently full disk that made
// every appending write fail. Readers accept Meta/RuntimeWarnings chunks
// anywhere in the file (the ostream conversion path still appends them at
// the end).
//
// v3 keeps the v2 preamble/chunk/CRC framing exactly and adds one chunk
// kind, EventsV3 (5), holding the same per-thread event runs in a compact
// delta/varint encoding (~4-8 bytes per event instead of 32):
//
//   kind 5 EventsV3: u32 tid | u32 count | four field groups, columnar:
//     count * varint(zigzag(ts[i]     - ts[i-1]))      (ts[-1] = 0)
//     count * varint(zigzag(object[i] - object[i-1]))  (object[-1] = 0)
//     count * varint(arg[i] + 1)                       (kNoArg wraps to 0)
//     count * varint(type[i])
//
// Deltas restart in every chunk, so each chunk stays self-contained and
// salvage/resync semantics are identical to v2. A v3 file may also carry
// raw kind-3 Events chunks (the async-signal-safe crash spill falls back
// to them); readers dispatch on the chunk kind, never the file version.
//
// The format is what the instrumentation runtime flushes (incrementally
// in v2/v3) and what `cla-analyze` consumes (paper Fig. 3's trace file).
// Chunk framing (render, check, resync), the payload field codec and the
// retrying I/O loop live in one layer shared with the agg store,
// util/framed_io.hpp, which also lists every call site's retry ladder.
// The read side is one decoder (decode_chunk and parse_v1 below) behind
// three readers that differ only in how they react to damage: the strict
// loader MappedTrace (trace_view.hpp) throws, salvage (salvage.hpp) drops
// the chunk, and the live tailer (tailer.hpp) skips it.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cla/trace/trace.hpp"

namespace cla::trace {

inline constexpr char kTraceMagic[4] = {'C', 'L', 'A', 'T'};
inline constexpr std::uint32_t kTraceVersion = 2;
inline constexpr std::uint32_t kTraceVersionLegacy = 1;
inline constexpr std::uint32_t kTraceVersionV3 = 3;

inline constexpr char kChunkMagic[4] = {'C', 'L', 'C', 'H'};

/// Chunk kinds (see format comment above).
enum class ChunkKind : std::uint32_t {
  ObjectNames = 1,
  ThreadNames = 2,
  Events = 3,
  Meta = 4,
  EventsV3 = 5,
  RuntimeWarnings = 6,
  CallStacks = 7,
  FrameSymbols = 8,
};

/// Hard cap on frames per recorded call stack (the interposer clamps
/// CLA_STACK_DEPTH to this; readers treat larger depths as corruption).
inline constexpr std::uint32_t kMaxCallStackDepth = 8;

/// One entry of a RuntimeWarnings chunk: a stable cla::util::DiagCode
/// value (CLA_W_*) plus a count/value. Code 0 marks an empty slot.
struct RuntimeWarning {
  std::uint32_t code = 0;
  std::uint64_t value = 0;
};

/// Fixed slot count of the in-place RuntimeWarnings chunk the incremental
/// writer reserves after the preamble.
inline constexpr std::size_t kRuntimeWarningSlots = 8;

/// Meta-chunk flag: the writer closed the stream deliberately (clean
/// process exit). Salvage treats files without it as crashed recordings.
inline constexpr std::uint32_t kMetaFlagCleanClose = 1u << 0;

/// Returns true for versions this library can read.
constexpr bool is_supported_trace_version(std::uint32_t version) noexcept {
  return version == kTraceVersionLegacy || version == kTraceVersion ||
         version == kTraceVersionV3;
}

/// Returns true for versions this library can write: v1 is read-only.
constexpr bool is_writable_trace_version(std::uint32_t version) noexcept {
  return version == kTraceVersion || version == kTraceVersionV3;
}

// ---- EventsV3 chunk codec ------------------------------------------------
//
// Shared by write_trace/ChunkedTraceWriter (encode) and by every reader
// (decode). The decoder is strictly bounds-checked and reports corruption
// by returning false, so salvage can drop a bad chunk where the strict
// loader throws.

/// Worst-case encoded payload size for `count` events (used to size
/// preallocated scratch so the writer never allocates on a hot path).
constexpr std::size_t events_v3_max_payload(std::size_t count) noexcept {
  return 8 + count * (10 + 10 + 10 + 3);  // ts + object + arg + type varints
}

/// Appends the EventsV3 chunk payload (u32 tid | u32 count | field
/// groups) for `events` to `payload`. Deltas start from 0, so the chunk
/// is self-contained. Appends nothing when count == 0.
void encode_events_v3(ThreadId tid, const Event* events, std::size_t count,
                      std::string& payload);

/// Reads the tid/count header of an EventsV3 payload. False when the
/// payload is too short to hold the header or `count` events (each event
/// occupies at least 4 payload bytes) or the tid/count are implausible.
bool peek_events_v3(const void* payload, std::size_t bytes, ThreadId& tid,
                    std::uint32_t& count);

/// Decodes the field groups of an EventsV3 payload into four column
/// arrays, each with capacity for the `count` peek_events_v3 reported.
/// False on truncation, overlong varints, out-of-range type values, or
/// trailing garbage; the output arrays are then unspecified.
bool decode_events_v3(const void* payload, std::size_t bytes, std::uint64_t* ts,
                      ObjectId* object, std::uint64_t* arg, std::uint16_t* type);

/// AoS convenience over the columnar decoder: fills `out[0..count)`
/// complete with tid and zeroed reserved field.
bool decode_events_v3(const void* payload, std::size_t bytes, Event* out);

/// Writes `trace` to a stream / file. Throws cla::util::Error on IO
/// failure or a version that is not writable. `version` selects the
/// on-disk format (v2 chunked by default; v3 for the compact varint
/// encoding). v1 is read-only.
void write_trace(const Trace& trace, std::ostream& out,
                 std::uint32_t version = kTraceVersion);
void write_trace_file(const Trace& trace, const std::string& path,
                      std::uint32_t version = kTraceVersion);

/// Incremental, crash-tolerant `.clat` v2/v3 writer over a raw POSIX fd.
///
/// Each append emits one self-contained checksummed chunk with a single
/// writev() call, so concurrent appends (the runtime's flusher thread vs.
/// a fatal-signal handler) interleave at chunk granularity only and a
/// chunk torn by process death is detected — and dropped — by CRC at
/// salvage time. write_events / write_meta / close allocate nothing and
/// only touch the fd, making them async-signal-safe; the name writers
/// build small heap buffers and must not be called from a handler.
///
/// In v3 mode write_events varint-encodes into a scratch buffer that is
/// preallocated at construction and guarded by a try-lock: if a fatal
/// signal lands while the flusher thread holds the scratch, the handler's
/// spill falls back to a raw v2 Events chunk instead of blocking —
/// mixed-kind files are legal, so nothing downstream notices.
///
/// Fault tolerance: every read and write goes through the one retrying
/// loop of util/framed_io.hpp (EINTR restarts, short writes continue,
/// transient errors back off), each site with a constant ladder:
///   - appends: 8 retries, 0.5 -> 64 ms (1 in teardown, 0 while
///     degraded), fault injection consulted;
///   - in-place Meta/RuntimeWarnings rewrites: the same ladder, injection
///     not consulted;
///   - ring compaction: no retries, writes injected, reads not.
/// When the retry budget of an append is exhausted the partially
/// written chunk is rolled back (ftruncate to the chunk start) so the
/// file stays structurally valid, and the writer enters a degraded
/// counted-drop mode: subsequent appends are single-shot (no backoff
/// stall on a full disk) until one succeeds again. The caller learns how
/// many events actually landed from write_events' return value and
/// accounts the rest as dropped. Hard errors (EBADF, ...) set failed_
/// permanently. Nothing here ever throws after a successful open: the
/// writer runs on teardown paths where throwing would kill the traced
/// application.
/// Ring retention (always-on mode): a non-zero `ring_bytes` caps the
/// file's on-disk size. When an append pushes the file past the cap the
/// writer compacts: it rewrites the preamble, the reserved in-place
/// chunks, every name chunk, and the *newest* event chunks (up to half
/// the cap) into a temp file, fsyncs, and rename()s it over the trace —
/// so any point-in-time snapshot of the path is either the old complete
/// file or the new complete file, never a mix, and both salvage cleanly.
/// Retired chunks' events are counted in ring_retired_events(); callers
/// fold them into the Meta dropped count so downstream analysis treats
/// retention exactly like any other counted loss. Compaction runs only on
/// the normal append path (never in teardown mode — fatal-signal handlers
/// must not allocate or rename) and swaps files with dup2(), so the fd
/// number concurrent teardown writers hold stays valid throughout.
class ChunkedTraceWriter {
 public:
  /// Opens (creates/truncates) `path` and writes the preamble for
  /// `version` (2 or 3). Throws cla::util::Error if the file cannot be
  /// opened or the version is not chunk-framed. A non-zero `ring_bytes`
  /// enables ring retention (clamped up to kMinRingBytes).
  explicit ChunkedTraceWriter(const std::string& path,
                              std::uint32_t version = kTraceVersion,
                              std::uint64_t ring_bytes = 0);
  ~ChunkedTraceWriter();

  /// Smallest accepted ring cap: room for the reserved region, the name
  /// chunks and at least a few event chunks, so compaction converges
  /// instead of thrashing.
  static constexpr std::uint64_t kMinRingBytes = 256 * 1024;

  ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
  ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

  /// False once any append failed (disk full, bad fd...).
  bool ok() const noexcept {
    return fd_ >= 0 && !failed_.load(std::memory_order_relaxed);
  }

  std::uint32_t version() const noexcept { return version_; }

  /// Appends Events (v2) or EventsV3 chunks for `tid` and returns how
  /// many of the `count` events were durably written (less than `count`
  /// only when the retry budget ran out — the caller counts the rest as
  /// dropped). Async-signal-safe (v3 falls back to a raw v2 chunk under
  /// scratch contention).
  std::size_t write_events(ThreadId tid, const Event* events,
                           std::size_t count);

  /// Appends a single-entry name chunk (names stream out as they are
  /// registered; readers apply duplicates last-write-wins).
  void write_object_name(ObjectId object, std::string_view name);
  void write_thread_name(ThreadId tid, std::string_view name);

  /// Appends a single-entry CallStacks chunk (stacks stream out as the
  /// recorder interns them; duplicates last-write-wins). `depth` is
  /// clamped to kMaxCallStackDepth. Not async-signal-safe.
  void write_call_stack(std::uint64_t stack_id, const std::uint64_t* pcs,
                        std::size_t depth);

  /// Appends a single-entry FrameSymbols chunk (pc -> symbol string).
  /// Written by the recorder's clean-close path after dladdr resolution.
  void write_frame_symbol(std::uint64_t pc, std::string_view name);

  /// Rewrites the reserved Meta chunk in place (dropped-event count +
  /// clean-close flag). Async-signal-safe; succeeds even on a full disk
  /// because the bytes are already allocated.
  void write_meta(std::uint64_t dropped_events, bool clean_close);

  /// Rewrites the reserved RuntimeWarnings chunk in place with up to
  /// kRuntimeWarningSlots entries. Async-signal-safe.
  void write_warnings(const RuntimeWarning* entries, std::size_t count);

  /// Switches to the teardown write policy: one retry, minimal backoff,
  /// and no append serialization / rollback (fatal-signal handlers must
  /// never spin on a lock an interrupted thread holds). Called by the
  /// crash-spill path before it writes.
  void set_teardown() noexcept {
    teardown_.store(true, std::memory_order_release);
  }

  /// Total write retries caused by EINTR or transient errors.
  std::uint64_t io_retries() const noexcept {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Chunks abandoned after the retry budget ran out.
  std::uint64_t failed_chunks() const noexcept {
    return failed_chunks_.load(std::memory_order_relaxed);
  }
  /// True while the last append failed and drop mode is active.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Events retired by ring compaction (counted loss, like drops).
  std::uint64_t ring_retired_events() const noexcept {
    return ring_retired_events_.load(std::memory_order_relaxed);
  }
  /// Number of completed ring compactions (file rewrites).
  std::uint64_t ring_compactions() const noexcept {
    return ring_compactions_.load(std::memory_order_relaxed);
  }
  /// Compactions that no-op'd because the file held no retirable complete
  /// event chunk (degenerate trace: names + reserved region only, or one
  /// giant chunk). The ring bound is temporarily exceeded; callers surface
  /// the condition as CLA_W_RING_COMPACTION_NOOP instead of rewriting an
  /// event-free file.
  std::uint64_t ring_compaction_noops() const noexcept {
    return ring_compaction_noops_.load(std::memory_order_relaxed);
  }

  /// Flushes file-descriptor state and closes. Async-signal-safe.
  void close() noexcept;

 private:
  bool write_chunk(ChunkKind kind, const void* head, std::size_t head_len,
                   const void* body, std::size_t body_len,
                   std::size_t event_count = 0);
  void write_table_entry(ChunkKind kind, const std::string& entry);
  bool write_in_place(const void* buf, std::size_t len, std::uint64_t offset);
  bool lock_appends() noexcept;
  void maybe_compact();  // caller holds the append lock

  int fd_ = -1;
  std::uint32_t version_ = kTraceVersion;
  std::string path_;

  // Ring-retention bookkeeping (all flusher-thread-only, mutated under
  // the append lock; teardown-mode writers never touch it).
  struct ChunkRecord {
    std::uint64_t offset = 0;   // chunk start in the current file
    std::uint32_t bytes = 0;    // header + payload
    ChunkKind kind = ChunkKind::Events;
    std::uint32_t events = 0;   // events lost if this chunk is retired
  };
  std::uint64_t ring_bytes_ = 0;  // 0 = unbounded (ring mode off)
  std::uint64_t append_bytes_ = 0;
  std::uint64_t compact_retry_at_ = 0;  // back off after a failed compaction
  std::vector<ChunkRecord> ring_chunks_;
  std::atomic<std::uint64_t> ring_retired_events_{0};
  std::atomic<std::uint64_t> ring_compactions_{0};
  std::atomic<std::uint64_t> ring_compaction_noops_{0};

  std::atomic<bool> failed_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> teardown_{false};
  std::atomic<std::uint64_t> io_retries_{0};
  std::atomic<std::uint64_t> failed_chunks_{0};
  // Serializes appending writers so the rollback of a failed chunk can
  // never truncate a concurrent writer's complete chunk. Bounded-spin
  // acquire: a signal handler that cannot get it drops the chunk instead
  // of deadlocking (teardown mode skips it entirely).
  std::atomic_flag append_busy_ = ATOMIC_FLAG_INIT;
  // v3 encode scratch: capacity reserved up front so appends inside the
  // reserved range never allocate (async-signal-safety), guarded by a
  // try-lock so a handler never blocks on the flusher.
  std::string v3_scratch_;
  std::atomic_flag v3_scratch_busy_ = ATOMIC_FLAG_INIT;
};

// ---- read side: one decoder for every reader -------------------------
//
// MappedTrace (strict), salvage (keeps what is intact) and TraceTailer
// (live, skips what is malformed) check frames and resync on the chunk
// magic through the shared frame codec (util/framed_io.hpp) and decode
// payloads only through the functions below.

/// Longest name (object, thread, frame symbol) a reader accepts.
inline constexpr std::uint32_t kMaxNameBytes = 1u << 20;
/// Largest thread id a reader accepts.
inline constexpr std::uint32_t kMaxThreadId = 1u << 20;

/// One on-disk run of a thread's events, still encoded: raw 32-byte
/// records (v1 blocks, kind-3 chunks) or a whole EventsV3 payload. Each
/// reader decodes it straight into its own storage.
struct EventsChunk {
  const unsigned char* data = nullptr;
  std::size_t bytes = 0;
  ThreadId tid = 0;
  std::uint32_t count = 0;
  bool v3 = false;
};

/// What decode_chunk yields besides table entries: the event run of an
/// Events/EventsV3 chunk (count 0 and null data for other kinds) and the
/// clean-close flag of a Meta chunk.
struct DecodedChunk : EventsChunk {
  bool clean_close = false;
};

/// Decodes one CRC-checked chunk payload. Table entries (names, call
/// stacks, frame symbols, runtime warnings) go into `tables`
/// last-write-wins and a Meta chunk's drop count replaces
/// tables.dropped_events; unknown kinds decode to nothing. Returns false
/// on a malformed payload — a name longer than kMaxNameBytes, a stack
/// deeper than kMaxCallStackDepth, a tid above kMaxThreadId, an Events or
/// RuntimeWarnings payload of the wrong size, or entries cut short — and
/// then applies nothing.
bool decode_chunk(std::uint32_t kind, const void* payload, std::size_t bytes,
                  TraceTables& tables, DecodedChunk& out);

/// Appends `chunk`'s events to `out` with their tid set, decoding v3
/// varints in place. False on a malformed v3 encoding, and `out` is then
/// left as it was.
bool append_events(const EventsChunk& chunk, util::GrowArray<Event>& out);

/// A v1 file parsed as far as it is intact.
struct V1Layout {
  /// One per thread block; the last block of a cut file holds only the
  /// whole events present.
  std::vector<EventsChunk> blocks;
  std::size_t end = 0;          ///< bytes consumed, preamble included
  const char* error = nullptr;  ///< why parsing stopped early; null if whole
};

/// Parses a v1 file (`size` bytes at `p`, preamble included), filling
/// the name tables of `tables` as it goes. The strict loader rejects any
/// error; salvage keeps the prefix.
V1Layout parse_v1(const unsigned char* p, std::size_t size,
                  TraceTables& tables);

/// Rewrites a `.clat` file (any readable version) in `version` (2 or 3),
/// preserving events and every table. Backs `cla-analyze --convert`.
void convert_trace_file(const std::string& in_path,
                        const std::string& out_path, std::uint32_t version);

/// Parses a user-facing target format name ("v2"/"2", "v3"/"3") into a
/// writable trace version; false on anything else, v1 included (v1 is
/// read-only).
bool parse_trace_format(std::string_view text, std::uint32_t& version);

/// Reads a trace back into an owned Trace through the strict loader
/// (MappedTrace). Throws cla::util::Error on malformed input.
Trace read_trace(std::istream& in);
Trace read_trace_file(const std::string& path);

}  // namespace cla::trace

#include "cla/trace/trace_io.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "cla/trace/trace_view.hpp"
#include "cla/trace/varint.hpp"
#include "cla/util/crc32.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::trace {

namespace {

// Bounded per-chunk event slice shared by the v2 and v3 writers: salvage
// after a mid-file tear loses at most this many events of one thread, and
// readers stay bounded.
constexpr std::size_t kEventsPerChunk = 1u << 16;

// Retry ladders (framed_io.hpp). Appends take the disk ladder; teardown
// (crash spill) mode allows one retry, since a dying process must not
// stall inside a signal handler, and degraded mode none. The in-place
// rewrites take the same ladder without fault injection. Compaction is
// opportunistic (an unhealthy disk aborts it and it is retried later), so
// it takes no retries; its writes are injected so tests can stage a
// compaction-time ENOSPC, its reads are not.
constexpr util::io::RetryPolicy kAppendRetry = util::io::kDiskRetry;
constexpr unsigned kTeardownRetries = 1;
constexpr util::io::RetryPolicy kInPlaceRetry =
    util::io::kDiskRetry.without_injection();
constexpr util::io::RetryPolicy kCompactWriteRetry =
    util::io::kDiskRetry.with_retries(0);
constexpr util::io::RetryPolicy kCompactReadRetry =
    kCompactWriteRetry.without_injection();

// On-disk layout of the in-place region right after the 8-byte preamble:
// a reserved RuntimeWarnings chunk, then a reserved Meta chunk. Appended
// data starts at kFirstAppendOffset.
constexpr std::size_t kWarnPayloadBytes = 4 + kRuntimeWarningSlots * 12;
constexpr std::uint64_t kWarnChunkOffset = 8;
constexpr std::uint64_t kMetaChunkOffset =
    kWarnChunkOffset + util::io::kFrameHeaderBytes + kWarnPayloadBytes;
constexpr std::size_t kMetaPayloadBytes = 12;
constexpr std::uint64_t kFirstAppendOffset =
    kMetaChunkOffset + util::io::kFrameHeaderBytes + kMetaPayloadBytes;

// Renders a complete chunk (header + payload) into `out`; used for the
// in-place pwrite chunks, which are small and fixed-size.
void render_chunk(unsigned char* out, ChunkKind kind, const void* payload,
                  std::size_t payload_len) noexcept {
  util::io::render_frame(out, kChunkMagic, static_cast<std::uint32_t>(kind),
                         payload, payload_len);
}

void render_warn_payload(unsigned char* out, const RuntimeWarning* entries,
                         std::size_t count) noexcept {
  const std::uint32_t slots = static_cast<std::uint32_t>(kRuntimeWarningSlots);
  std::memset(out, 0, kWarnPayloadBytes);
  std::memcpy(out, &slots, 4);
  for (std::size_t i = 0; i < count && i < kRuntimeWarningSlots; ++i) {
    std::memcpy(out + 4 + i * 12, &entries[i].code, 4);
    std::memcpy(out + 4 + i * 12 + 4, &entries[i].value, 8);
  }
}

void put_chunk(std::ostream& out, ChunkKind kind, std::string_view payload) {
  unsigned char header[util::io::kFrameHeaderBytes];
  util::io::render_frame_header(
      header, kChunkMagic, static_cast<std::uint32_t>(kind),
      static_cast<std::uint32_t>(payload.size()),
      util::crc32(payload.data(), payload.size()));
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// One `{ key, u32 len, bytes }` entry of a name-table chunk; the key is a
// u32 thread id or a u64 object id / program counter.
template <typename Key>
void put_name_entry(std::string& out, Key key, std::string_view name) {
  if constexpr (sizeof(Key) == 4) {
    util::io::put_u32(out, key);
  } else {
    util::io::put_u64(out, key);
  }
  util::io::put_str(out, name);
}

template <typename Map>
void put_names_chunk(std::ostream& out, ChunkKind kind, const Map& names) {
  if (names.empty()) return;
  std::string payload;
  util::io::put_u32(payload, static_cast<std::uint32_t>(names.size()));
  for (const auto& [key, name] : names) put_name_entry(payload, key, name);
  put_chunk(out, kind, payload);
}

void write_trace_chunked(const Trace& trace, std::ostream& out,
                         std::uint32_t version) {
  using util::io::put_u32;
  using util::io::put_u64;
  put_names_chunk(out, ChunkKind::ObjectNames, trace.object_names());
  put_names_chunk(out, ChunkKind::ThreadNames, trace.thread_names());
  if (!trace.call_stacks().empty()) {
    std::string payload;
    put_u32(payload, static_cast<std::uint32_t>(trace.call_stacks().size()));
    for (const auto& [id, pcs] : trace.call_stacks()) {
      put_u64(payload, id);
      put_u32(payload, static_cast<std::uint32_t>(pcs.size()));
      for (const std::uint64_t pc : pcs) put_u64(payload, pc);
    }
    put_chunk(out, ChunkKind::CallStacks, payload);
  }
  put_names_chunk(out, ChunkKind::FrameSymbols, trace.frame_symbols());
  std::string payload;
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    for (std::size_t begin = 0; begin < events.size();
         begin += kEventsPerChunk) {
      const std::size_t n = std::min(kEventsPerChunk, events.size() - begin);
      payload.clear();
      if (version == kTraceVersionV3) {
        encode_events_v3(tid, events.data() + begin, n, payload);
        put_chunk(out, ChunkKind::EventsV3, payload);
      } else {
        payload.reserve(8 + n * sizeof(Event));
        put_u32(payload, tid);
        put_u32(payload, static_cast<std::uint32_t>(n));
        payload.append(reinterpret_cast<const char*>(events.data() + begin),
                       n * sizeof(Event));
        put_chunk(out, ChunkKind::Events, payload);
      }
    }
  }
  if (!trace.runtime_warnings().empty()) {
    std::string warnings;
    put_u32(warnings,
            static_cast<std::uint32_t>(trace.runtime_warnings().size()));
    for (const auto& [code, value] : trace.runtime_warnings()) {
      put_u32(warnings, code);
      put_u64(warnings, value);
    }
    put_chunk(out, ChunkKind::RuntimeWarnings, warnings);
  }
  std::string meta;
  put_u64(meta, trace.dropped_events());
  put_u32(meta, kMetaFlagCleanClose);
  put_chunk(out, ChunkKind::Meta, meta);
}

// Strided v3 field-group decode: one core serves the AoS (stride 32 into
// Event fields) and SoA (stride = element size) callers. memcpy stores
// keep the core alignment-agnostic.
bool decode_events_v3_strided(const void* payload, std::size_t bytes,
                              std::uint32_t count,                      //
                              unsigned char* ts, std::size_t ts_stride,  //
                              unsigned char* object, std::size_t object_stride,
                              unsigned char* arg, std::size_t arg_stride,
                              unsigned char* type, std::size_t type_stride) {
  VarintReader r{static_cast<const unsigned char*>(payload) + 8, bytes - 8, 0};
  std::uint64_t v = 0;
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.get(v)) return false;
    prev += static_cast<std::uint64_t>(zigzag_decode(v));
    std::memcpy(ts + i * ts_stride, &prev, 8);
  }
  prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.get(v)) return false;
    prev += static_cast<std::uint64_t>(zigzag_decode(v));
    std::memcpy(object + i * object_stride, &prev, 8);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.get(v)) return false;
    const std::uint64_t raw_arg = v - 1;  // 0 wraps back to kNoArg
    std::memcpy(arg + i * arg_stride, &raw_arg, 8);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.get(v)) return false;
    if (v > std::numeric_limits<std::uint16_t>::max()) return false;
    const std::uint16_t raw_type = static_cast<std::uint16_t>(v);
    std::memcpy(type + i * type_stride, &raw_type, 2);
  }
  return r.remaining() == 0;
}

}  // namespace

// ---- EventsV3 chunk codec ------------------------------------------------

void encode_events_v3(ThreadId tid, const Event* events, std::size_t count,
                      std::string& payload) {
  if (count == 0) return;
  CLA_CHECK(count <= std::numeric_limits<std::uint32_t>::max(),
            "events chunk too large for v3 encoding");
  util::io::put_u32(payload, tid);
  util::io::put_u32(payload, static_cast<std::uint32_t>(count));
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    put_varint(payload,
               zigzag_encode(static_cast<std::int64_t>(events[i].ts - prev)));
    prev = events[i].ts;
  }
  prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    put_varint(payload, zigzag_encode(
                            static_cast<std::int64_t>(events[i].object - prev)));
    prev = events[i].object;
  }
  for (std::size_t i = 0; i < count; ++i) {
    put_varint(payload, events[i].arg + 1);  // kNoArg wraps to 0
  }
  for (std::size_t i = 0; i < count; ++i) {
    put_varint(payload, static_cast<std::uint64_t>(events[i].type));
  }
}

bool peek_events_v3(const void* payload, std::size_t bytes, ThreadId& tid,
                    std::uint32_t& count) {
  util::io::FieldReader r{static_cast<const unsigned char*>(payload), bytes};
  // Every event costs at least one varint byte per field group, so a
  // count the payload cannot physically hold is corruption, not a huge
  // allocation request.
  return r.u32(tid) && r.u32(count) && tid <= kMaxThreadId &&
         r.remaining() >= 4ull * count;
}

bool decode_events_v3(const void* payload, std::size_t bytes, std::uint64_t* ts,
                      ObjectId* object, std::uint64_t* arg,
                      std::uint16_t* type) {
  ThreadId tid = 0;
  std::uint32_t count = 0;
  if (!peek_events_v3(payload, bytes, tid, count)) return false;
  return decode_events_v3_strided(
      payload, bytes, count, reinterpret_cast<unsigned char*>(ts), 8,
      reinterpret_cast<unsigned char*>(object), 8,
      reinterpret_cast<unsigned char*>(arg), 8,
      reinterpret_cast<unsigned char*>(type), 2);
}

bool decode_events_v3(const void* payload, std::size_t bytes, Event* out) {
  ThreadId tid = 0;
  std::uint32_t count = 0;
  if (!peek_events_v3(payload, bytes, tid, count)) return false;
  auto* base = reinterpret_cast<unsigned char*>(out);
  if (!decode_events_v3_strided(payload, bytes, count,              //
                                base + offsetof(Event, ts), sizeof(Event),
                                base + offsetof(Event, object), sizeof(Event),
                                base + offsetof(Event, arg), sizeof(Event),
                                base + offsetof(Event, type), sizeof(Event))) {
    return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    out[i].reserved = 0;
    out[i].tid = tid;
  }
  return true;
}

void write_trace(const Trace& trace, std::ostream& out, std::uint32_t version) {
  CLA_CHECK(is_writable_trace_version(version),
            "cannot write trace version " + std::to_string(version) +
                " (v1 is read-only; write v2 or v3)");
  out.write(kTraceMagic, sizeof kTraceMagic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  write_trace_chunked(trace, out, version);
  CLA_CHECK(out.good(), "failed writing trace stream");
}

void write_trace_file(const Trace& trace, const std::string& path,
                      std::uint32_t version) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CLA_CHECK(out.is_open(), "cannot open trace file for writing: " + path);
  write_trace(trace, out, version);
  out.flush();
  CLA_CHECK(out.good(), "failed writing trace file: " + path);
}

// ---- ChunkedTraceWriter --------------------------------------------------

ChunkedTraceWriter::ChunkedTraceWriter(const std::string& path,
                                       std::uint32_t version,
                                       std::uint64_t ring_bytes)
    : version_(version), path_(path), ring_bytes_(ring_bytes) {
  CLA_CHECK(is_writable_trace_version(version),
            "ChunkedTraceWriter needs a chunk-framed version (2 or 3), got " +
                std::to_string(version));
  util::fault::init();  // parse CLA_FAULT_* while getenv is still safe
  if (ring_bytes_ != 0 && ring_bytes_ < kMinRingBytes) {
    ring_bytes_ = kMinRingBytes;
  }
  if (ring_bytes_ != 0) ring_chunks_.reserve(1024);
  if (version_ == kTraceVersionV3) {
    // All allocation happens here, up front: write_events must stay
    // allocation-free to remain async-signal-safe.
    v3_scratch_.reserve(events_v3_max_payload(kEventsPerChunk));
  }
  // Ring mode reads surviving chunks back during compaction, so the fd
  // must be readable too; a plain writer stays write-only.
  const int rw = ring_bytes_ != 0 ? O_RDWR : O_WRONLY;
  fd_ = ::open(path.c_str(), rw | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  CLA_CHECK(fd_ >= 0, "cannot open trace file for writing: " + path + ": " +
                          std::strerror(errno));
  // Preamble plus the reserved in-place chunks (empty RuntimeWarnings,
  // not-clean Meta). Writing them now, while the disk presumably has
  // room, is what lets write_meta()/write_warnings() succeed later even
  // when the disk has filled up: rewriting allocated bytes needs no new
  // blocks.
  unsigned char init[kFirstAppendOffset];
  std::memcpy(init, kTraceMagic, 4);
  std::memcpy(init + 4, &version_, 4);
  unsigned char warn_payload[kWarnPayloadBytes];
  render_warn_payload(warn_payload, nullptr, 0);
  render_chunk(init + kWarnChunkOffset, ChunkKind::RuntimeWarnings,
               warn_payload, sizeof warn_payload);
  unsigned char meta_payload[kMetaPayloadBytes] = {};
  render_chunk(init + kMetaChunkOffset, ChunkKind::Meta, meta_payload,
               sizeof meta_payload);
  if (!write_in_place(init, sizeof init, 0) ||
      ::lseek(fd_, static_cast<off_t>(kFirstAppendOffset), SEEK_SET) < 0) {
    failed_.store(true, std::memory_order_relaxed);
  }
}

ChunkedTraceWriter::~ChunkedTraceWriter() { close(); }

bool ChunkedTraceWriter::lock_appends() noexcept {
  // ~4ms bounded spin. Only a fatal-signal handler interrupting the lock
  // holder can spin this out; it then drops its chunk instead of
  // deadlocking (and teardown mode never calls this at all).
  for (int i = 0; i < 4000; ++i) {
    if (!append_busy_.test_and_set(std::memory_order_acquire)) return true;
    util::io::sleep_ns(1'000);
  }
  return false;
}

bool ChunkedTraceWriter::write_in_place(const void* buf, std::size_t len,
                                        std::uint64_t offset) {
  const util::io::IoResult r = util::io::write_all(
      fd_, buf, len, static_cast<std::int64_t>(offset),
      teardown_.load(std::memory_order_relaxed)
          ? kInPlaceRetry.with_retries(kTeardownRetries)
          : kInPlaceRetry);
  io_retries_.fetch_add(r.retries, std::memory_order_relaxed);
  return r.ok();
}

bool ChunkedTraceWriter::write_chunk(ChunkKind kind, const void* head,
                                     std::size_t head_len, const void* body,
                                     std::size_t body_len,
                                     std::size_t event_count) {
  if (fd_ < 0 || failed_.load(std::memory_order_relaxed)) return false;
  const bool teardown = teardown_.load(std::memory_order_relaxed);
  if (!teardown && !lock_appends()) {
    failed_chunks_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::uint32_t crc = util::kCrc32Init;
  crc = util::crc32_update(crc, head, head_len);
  crc = util::crc32_update(crc, body, body_len);
  unsigned char header[util::io::kFrameHeaderBytes];
  util::io::render_frame_header(header, kChunkMagic,
                                static_cast<std::uint32_t>(kind),
                                static_cast<std::uint32_t>(head_len + body_len),
                                util::crc32_final(crc));

  // One writev submission per chunk: concurrent writers (flusher thread
  // vs. crash handler in teardown mode) interleave at chunk granularity,
  // never inside a chunk.
  struct iovec iov[3];
  iov[0] = {header, sizeof header};
  iov[1] = {const_cast<void*>(head), head_len};
  iov[2] = {const_cast<void*>(body), body_len};
  const int iovcnt = body_len > 0 ? 3 : 2;
  const std::size_t total = sizeof header + head_len + body_len;

  const off_t start = teardown ? -1 : ::lseek(fd_, 0, SEEK_CUR);
  // While degraded (the disk just rejected a full retry ladder) each
  // chunk gets exactly one cheap attempt, so a persistently full disk
  // costs the traced app one failed syscall per chunk, not 250ms of
  // backoff per chunk.
  const util::io::IoResult r = util::io::write_all(
      fd_, iov, iovcnt, util::io::kFilePosition,
      kAppendRetry.with_retries(
          teardown ? kTeardownRetries
                   : (degraded_.load(std::memory_order_relaxed)
                          ? 0
                          : kAppendRetry.max_retries)));
  io_retries_.fetch_add(r.retries, std::memory_order_relaxed);
  if (!r.ok() && !util::io::transient_errno(r.error)) {
    failed_.store(true, std::memory_order_relaxed);  // EBADF and the like
  }
  const bool ok = r.ok();
  if (ok) {
    degraded_.store(false, std::memory_order_relaxed);
    if (ring_bytes_ != 0 && !teardown && start >= 0) {
      ring_chunks_.push_back({static_cast<std::uint64_t>(start),
                              static_cast<std::uint32_t>(total), kind,
                              static_cast<std::uint32_t>(event_count)});
      append_bytes_ += total;
      maybe_compact();
    }
  } else {
    // Roll the partial chunk back so the file stays structurally valid
    // (CRC-clean chunks only), then drop into counted-drop mode. In
    // teardown mode there is no rollback — a torn final chunk is exactly
    // what salvage's CRC check exists for.
    if (start >= 0 && util::io::truncate_to(fd_, start)) {
      ::lseek(fd_, start, SEEK_SET);
    }
    degraded_.store(true, std::memory_order_relaxed);
    failed_chunks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!teardown) append_busy_.clear(std::memory_order_release);
  return ok;
}

std::size_t ChunkedTraceWriter::write_events(ThreadId tid, const Event* events,
                                             std::size_t count) {
  std::size_t written = 0;
  for (std::size_t begin = 0; begin < count; begin += kEventsPerChunk) {
    const std::size_t n = std::min(kEventsPerChunk, count - begin);
    // v3 encoding needs the scratch buffer. Try-lock, never block: if a
    // fatal-signal spill races the flusher thread mid-encode, the spill
    // writes a raw v2 Events chunk instead — mixed-kind files are legal.
    bool ok;
    if (version_ == kTraceVersionV3 &&
        !v3_scratch_busy_.test_and_set(std::memory_order_acquire)) {
      v3_scratch_.clear();
      encode_events_v3(tid, events + begin, n, v3_scratch_);
      ok = write_chunk(ChunkKind::EventsV3, v3_scratch_.data(),
                       v3_scratch_.size(), nullptr, 0, n);
      v3_scratch_busy_.clear(std::memory_order_release);
    } else {
      const std::uint32_t head[2] = {tid, static_cast<std::uint32_t>(n)};
      ok = write_chunk(ChunkKind::Events, head, sizeof head, events + begin,
                       n * sizeof(Event), n);
    }
    if (ok) written += n;
  }
  return written;
}

void ChunkedTraceWriter::write_table_entry(ChunkKind kind,
                                           const std::string& entry) {
  const std::uint32_t count = 1;
  write_chunk(kind, &count, sizeof count, entry.data(), entry.size());
}

void ChunkedTraceWriter::write_object_name(ObjectId object,
                                           std::string_view name) {
  std::string entry;
  put_name_entry(entry, object, name);
  write_table_entry(ChunkKind::ObjectNames, entry);
}

void ChunkedTraceWriter::write_thread_name(ThreadId tid, std::string_view name) {
  std::string entry;
  put_name_entry(entry, tid, name);
  write_table_entry(ChunkKind::ThreadNames, entry);
}

void ChunkedTraceWriter::write_call_stack(std::uint64_t stack_id,
                                          const std::uint64_t* pcs,
                                          std::size_t depth) {
  if (depth > kMaxCallStackDepth) depth = kMaxCallStackDepth;
  std::string entry;
  util::io::put_u64(entry, stack_id);
  util::io::put_u32(entry, static_cast<std::uint32_t>(depth));
  for (std::size_t i = 0; i < depth; ++i) util::io::put_u64(entry, pcs[i]);
  write_table_entry(ChunkKind::CallStacks, entry);
}

void ChunkedTraceWriter::write_frame_symbol(std::uint64_t pc,
                                            std::string_view name) {
  std::string entry;
  put_name_entry(entry, pc, name);
  write_table_entry(ChunkKind::FrameSymbols, entry);
}

void ChunkedTraceWriter::write_meta(std::uint64_t dropped_events,
                                    bool clean_close) {
  if (fd_ < 0) return;
  unsigned char payload[kMetaPayloadBytes];
  const std::uint32_t flags = clean_close ? kMetaFlagCleanClose : 0;
  std::memcpy(payload, &dropped_events, 8);
  std::memcpy(payload + 8, &flags, 4);
  unsigned char chunk[util::io::kFrameHeaderBytes + kMetaPayloadBytes];
  render_chunk(chunk, ChunkKind::Meta, payload, sizeof payload);
  write_in_place(chunk, sizeof chunk, kMetaChunkOffset);
}

void ChunkedTraceWriter::write_warnings(const RuntimeWarning* entries,
                                        std::size_t count) {
  if (fd_ < 0) return;
  unsigned char payload[kWarnPayloadBytes];
  render_warn_payload(payload, entries, count);
  unsigned char chunk[util::io::kFrameHeaderBytes + kWarnPayloadBytes];
  render_chunk(chunk, ChunkKind::RuntimeWarnings, payload, sizeof payload);
  write_in_place(chunk, sizeof chunk, kWarnChunkOffset);
}

void ChunkedTraceWriter::maybe_compact() {
  if (kFirstAppendOffset + append_bytes_ <= ring_bytes_) return;
  if (compact_retry_at_ != 0 && append_bytes_ < compact_retry_at_) return;

  // Choose what survives: every name chunk (small, and required to keep
  // the retained events attributable) plus the newest event chunks up to
  // half the cap — leaving the other half as append headroom so
  // compactions amortize instead of firing on every chunk.
  const auto is_events = [](const ChunkRecord& c) {
    return c.kind == ChunkKind::Events || c.kind == ChunkKind::EventsV3;
  };
  const std::uint64_t keep_budget = ring_bytes_ / 2;
  std::uint64_t kept_bytes = 0;
  for (const ChunkRecord& c : ring_chunks_) {
    if (!is_events(c)) kept_bytes += c.bytes;
  }
  std::size_t first_kept_event = ring_chunks_.size();
  bool kept_any_events = false;
  for (std::size_t i = ring_chunks_.size(); i-- > 0;) {
    const ChunkRecord& c = ring_chunks_[i];
    if (!is_events(c)) continue;
    if (kept_any_events && kept_bytes + c.bytes > keep_budget) break;
    kept_bytes += c.bytes;
    kept_any_events = true;
    first_kept_event = i;
  }
  std::uint64_t retired_events = 0;
  std::uint64_t retired_chunks = 0;
  for (std::size_t i = 0; i < first_kept_event; ++i) {
    if (!is_events(ring_chunks_[i])) continue;
    retired_events += ring_chunks_[i].events;
    ++retired_chunks;
  }
  if (!kept_any_events || retired_chunks == 0) {
    // Nothing retirable: either the file holds no complete event chunk at
    // all (degenerate trace — name chunks + the reserved region only) or
    // every event chunk must be kept (names dominate, or one giant
    // chunk). Rewriting would produce an event-free ring file and retire
    // nothing, so no-op with a counted warning and try again only after
    // meaningful growth so a stuck ring does not thrash.
    ring_compaction_noops_.fetch_add(1, std::memory_order_relaxed);
    compact_retry_at_ = append_bytes_ + ring_bytes_ / 4;
    return;
  }

  const std::string tmp_path = path_ + ".ring";
  // O_RDWR, not O_WRONLY: after dup2 this becomes the writer's fd, and
  // the *next* compaction must be able to pread chunks back out of it.
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    compact_retry_at_ = append_bytes_ + ring_bytes_ / 4;
    return;
  }
  const auto abort_compaction = [&] {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    compact_retry_at_ = append_bytes_ + ring_bytes_ / 4;
  };

  std::vector<unsigned char> copy_buf;
  const auto copy = [&](std::size_t len, std::uint64_t offset) {
    copy_buf.resize(len);
    return util::io::read_all(fd_, copy_buf.data(), len, offset,
                              kCompactReadRetry)
               .ok() &&
           util::io::write_all(tmp_fd, copy_buf.data(), len,
                               util::io::kFilePosition, kCompactWriteRetry)
               .ok();
  };
  // Reserved region first (preamble + in-place warnings/meta), copied
  // verbatim so the latest counters written by write_meta/write_warnings
  // survive the rewrite.
  bool ok = copy(kFirstAppendOffset, 0);
  std::vector<ChunkRecord> kept;
  kept.reserve(ring_chunks_.size() - retired_chunks);
  std::uint64_t out_offset = kFirstAppendOffset;
  for (std::size_t i = 0; i < ring_chunks_.size() && ok; ++i) {
    const ChunkRecord& c = ring_chunks_[i];
    if (is_events(c) && i < first_kept_event) continue;
    ok = copy(c.bytes, c.offset);
    if (ok) {
      ChunkRecord moved = c;
      moved.offset = out_offset;
      out_offset += c.bytes;
      kept.push_back(moved);
    }
  }
  if (!ok || ::fsync(tmp_fd) != 0 ||
      ::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    abort_compaction();
    return;
  }
  // Atomically re-point the writer's fd at the new file. dup2 keeps the
  // fd *number* stable, so a fatal-signal teardown writer racing this
  // swap lands its spill in one file or the other — never in a closed fd.
  if (::dup2(tmp_fd, fd_) < 0) {
    ::close(tmp_fd);
    failed_.store(true, std::memory_order_relaxed);
    return;
  }
  ::close(tmp_fd);
  ring_chunks_ = std::move(kept);
  append_bytes_ = out_offset - kFirstAppendOffset;
  compact_retry_at_ = 0;
  ring_retired_events_.fetch_add(retired_events, std::memory_order_relaxed);
  ring_compactions_.fetch_add(1, std::memory_order_relaxed);
}

void ChunkedTraceWriter::close() noexcept {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

// ---- read side -----------------------------------------------------------

namespace {

using util::io::FieldReader;

/// Applies the `u32 count | count * entry` body of a table chunk.
/// `entry(reader, apply)` parses one entry and, with `apply`, stores it.
/// Every entry is checked before any is stored, so a malformed chunk
/// applies nothing.
template <typename Entry>
bool apply_entries(FieldReader in, Entry entry) {
  std::uint32_t count = 0;
  if (!in.u32(count)) return false;
  FieldReader check = in;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!entry(check, false)) return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) entry(in, true);
  return true;
}

/// Reads one name entry written by put_name_entry; `name` may be null
/// (validate only).
template <typename Key>
bool get_name_entry(FieldReader& r, Key& key, std::string* name) {
  if constexpr (sizeof(Key) == 4) {
    if (!r.u32(key)) return false;
  } else {
    if (!r.u64(key)) return false;
  }
  return r.str(name, kMaxNameBytes);
}

/// Applies a name-table chunk (`u32 count | count * name entry`) to
/// `names`.
template <typename Map>
bool apply_names(FieldReader in, Map& names) {
  return apply_entries(in, [&](FieldReader& r, bool apply) {
    typename Map::key_type key = 0;
    std::string name;
    if (!get_name_entry(r, key, apply ? &name : nullptr)) return false;
    if (apply) names[key] = std::move(name);
    return true;
  });
}

}  // namespace

bool decode_chunk(std::uint32_t kind, const void* payload, std::size_t bytes,
                  TraceTables& tables, DecodedChunk& out) {
  out = DecodedChunk{};
  FieldReader in{static_cast<const unsigned char*>(payload), bytes};
  switch (static_cast<ChunkKind>(kind)) {
    case ChunkKind::ObjectNames:
      return apply_names(in, tables.object_names);
    case ChunkKind::ThreadNames:
      return apply_names(in, tables.thread_names);
    case ChunkKind::FrameSymbols:
      return apply_names(in, tables.frame_symbols);
    case ChunkKind::CallStacks:
      return apply_entries(in, [&](FieldReader& r, bool apply) {
        std::uint64_t id = 0;
        std::uint32_t depth = 0;
        if (!r.u64(id) || !r.u32(depth) || depth > kMaxCallStackDepth ||
            r.remaining() < depth * sizeof(std::uint64_t)) {
          return false;
        }
        std::vector<std::uint64_t> pcs(depth);
        for (std::uint64_t& pc : pcs) r.u64(pc);
        if (apply) tables.call_stacks[id] = std::move(pcs);
        return true;
      });
    case ChunkKind::Events: {
      if (!in.u32(out.tid) || !in.u32(out.count) || out.tid > kMaxThreadId ||
          in.remaining() != std::size_t{out.count} * sizeof(Event)) {
        return false;
      }
      out.data = in.data + in.pos;
      out.bytes = in.remaining();
      return true;
    }
    case ChunkKind::EventsV3:
      if (!peek_events_v3(payload, bytes, out.tid, out.count)) return false;
      out.data = in.data;
      out.bytes = bytes;
      out.v3 = true;
      return true;
    case ChunkKind::Meta: {
      std::uint64_t dropped = 0;
      std::uint32_t flags = 0;
      if (!in.u64(dropped) || !in.u32(flags)) return false;
      tables.dropped_events = dropped;
      out.clean_close = (flags & kMetaFlagCleanClose) != 0;
      return true;
    }
    case ChunkKind::RuntimeWarnings: {
      std::uint32_t count = 0;
      if (!in.u32(count) || in.remaining() != count * 12ull) return false;
      for (std::uint32_t i = 0; i < count; ++i) {
        RuntimeWarning w;
        in.u32(w.code);
        in.u64(w.value);
        // Code 0 marks an unused slot of the reserved in-place chunk.
        if (w.code != 0) tables.runtime_warnings[w.code] = w.value;
      }
      return true;
    }
  }
  return true;  // unknown kind from a newer minor writer: nothing to apply
}

bool append_events(const EventsChunk& chunk, util::GrowArray<Event>& out) {
  // An empty v3 run must be bare.
  if (chunk.count == 0) return !chunk.v3 || chunk.bytes == 8;
  const std::size_t at = out.size();
  out.resize(at + chunk.count);
  Event* events = out.data() + at;
  if (chunk.v3) {
    if (decode_events_v3(chunk.data, chunk.bytes, events)) return true;
    out.resize(at);
    return false;
  }
  std::memcpy(events, chunk.data, std::size_t{chunk.count} * sizeof(Event));
  for (std::uint32_t i = 0; i < chunk.count; ++i) events[i].tid = chunk.tid;
  return true;
}

V1Layout parse_v1(const unsigned char* p, std::size_t size,
                  TraceTables& tables) {
  FieldReader in{p, size, 8};
  V1Layout layout;
  const auto stop = [&](const char* error) {
    layout.end = in.pos;
    layout.error = error;
    return layout;
  };

  std::uint32_t thread_count = 0;
  if (!in.u32(thread_count)) return stop("trace stream truncated");
  if (thread_count > kMaxThreadId) {
    return stop("implausible thread count in trace");
  }
  // The object, then the thread name table: u32 count | count * entry.
  const auto read_names = [&](auto& names) -> const char* {
    std::uint32_t count = 0;
    if (!in.u32(count)) return "trace stream truncated";
    for (std::uint32_t i = 0; i < count; ++i) {
      typename std::decay_t<decltype(names)>::key_type key = 0;
      std::string name;
      if (!get_name_entry(in, key, &name)) {
        return "trace stream truncated in name record";
      }
      names[key] = std::move(name);
    }
    return nullptr;
  };
  if (const char* error = read_names(tables.object_names)) return stop(error);
  if (const char* error = read_names(tables.thread_names)) return stop(error);

  for (std::uint32_t block = 0; block < thread_count; ++block) {
    ThreadId tid = 0;
    std::uint64_t declared = 0;
    if (!in.u32(tid)) return stop("trace stream truncated");
    if (tid > kMaxThreadId) return stop("implausible thread id in trace");
    if (!in.u64(declared)) return stop("trace stream truncated");
    // Keep every whole event that is actually present; a block cut short
    // mid-event loses only its final partial record.
    const std::uint64_t count =
        std::min<std::uint64_t>(declared, in.remaining() / sizeof(Event));
    layout.blocks.push_back(EventsChunk{in.data + in.pos,
                                        count * sizeof(Event), tid,
                                        static_cast<std::uint32_t>(count)});
    in.pos += count * sizeof(Event);
    if (count < declared) return stop("trace stream truncated in event block");
  }
  layout.end = in.pos;
  return layout;
}

Trace read_trace(std::istream& in) {
  return MappedTrace(read_trace_bytes(in)).view().materialize();
}

Trace read_trace_file(const std::string& path) {
  return MappedTrace(path).view().materialize();
}

void convert_trace_file(const std::string& in_path,
                        const std::string& out_path, std::uint32_t version) {
  CLA_CHECK(is_writable_trace_version(version),
            "cannot write trace version " + std::to_string(version) +
                " (v1 is read-only; write v2 or v3)");
  const Trace trace = read_trace_file(in_path);
  write_trace_file(trace, out_path, version);
}

bool parse_trace_format(std::string_view text, std::uint32_t& version) {
  if (text == "v2" || text == "2") {
    version = kTraceVersion;
  } else if (text == "v3" || text == "3") {
    version = kTraceVersionV3;
  } else {
    return false;
  }
  return true;
}

}  // namespace cla::trace

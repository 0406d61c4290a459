#include "cla/trace/trace_io.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <time.h>
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

namespace cla::trace {

namespace {

// Bounded per-chunk event slice shared by the v2 and v3 writers: salvage
// after a mid-file tear loses at most this many events of one thread, and
// readers stay bounded.
constexpr std::size_t kEventsPerChunk = 1u << 16;

// ---- fault-tolerant write layer ------------------------------------------

// Retry ladder for transient write errors. Normal mode: ~8 backoffs from
// 0.5ms doubling to 64ms (~250ms worst case per chunk, paid only while
// the disk is full/busy). Teardown (crash spill) mode: one 1ms retry —
// a dying process must not stall inside a signal handler.
constexpr unsigned kMaxTransientRetries = 8;
constexpr unsigned kTeardownRetries = 1;
constexpr std::uint64_t kInitialBackoffNs = 500'000;
constexpr std::uint64_t kMaxBackoffNs = 64'000'000;

// On-disk layout of the in-place region right after the 8-byte preamble:
// a reserved RuntimeWarnings chunk, then a reserved Meta chunk. Appended
// data starts at kFirstAppendOffset.
constexpr std::size_t kWarnPayloadBytes = 4 + kRuntimeWarningSlots * 12;
constexpr std::uint64_t kWarnChunkOffset = 8;
constexpr std::uint64_t kMetaChunkOffset =
    kWarnChunkOffset + kChunkHeaderBytes + kWarnPayloadBytes;
constexpr std::size_t kMetaPayloadBytes = 12;
constexpr std::uint64_t kFirstAppendOffset =
    kMetaChunkOffset + kChunkHeaderBytes + kMetaPayloadBytes;

// ENOSPC-class conditions worth waiting out; anything else (EBADF, EFBIG,
// a forcibly revoked fd...) is permanent.
bool transient_write_errno(int err) noexcept {
  return err == ENOSPC || err == EAGAIN || err == EWOULDBLOCK ||
         err == EDQUOT || err == EIO;
}

void backoff_sleep(std::uint64_t ns) noexcept {
  struct timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                     static_cast<long>(ns % 1'000'000'000)};
  nanosleep(&ts, nullptr);  // async-signal-safe
}

// Builds a complete chunk image (header + payload) into `out`, which must
// hold kChunkHeaderBytes + payload_len bytes. Used for the in-place
// pwrite chunks, which are small and fixed-size.
void render_chunk(unsigned char* out, ChunkKind kind, const void* payload,
                  std::size_t payload_len) noexcept {
  std::memcpy(out, kChunkMagic, 4);
  const std::uint32_t kind_raw = static_cast<std::uint32_t>(kind);
  const std::uint32_t payload_bytes = static_cast<std::uint32_t>(payload_len);
  const std::uint32_t crc = util::crc32(payload, payload_len);
  std::memcpy(out + 4, &kind_raw, 4);
  std::memcpy(out + 8, &payload_bytes, 4);
  std::memcpy(out + 12, &crc, 4);
  std::memcpy(out + kChunkHeaderBytes, payload, payload_len);
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

template <typename T>
void put(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_string(std::ostream& out, const std::string& s) {
  CLA_CHECK(s.size() <= std::numeric_limits<std::uint32_t>::max(), "name too long");
  put(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// ---- v2 chunk helpers ----------------------------------------------------

template <typename T>
void append_raw(std::string& buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void append_string(std::string& buf, std::string_view s) {
  CLA_CHECK(s.size() <= std::numeric_limits<std::uint32_t>::max(), "name too long");
  append_raw(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s.data(), s.size());
}

void put_chunk(std::ostream& out, ChunkKind kind, std::string_view payload) {
  out.write(kChunkMagic, sizeof kChunkMagic);
  put(out, static_cast<std::uint32_t>(kind));
  put(out, static_cast<std::uint32_t>(payload.size()));
  put(out, util::crc32(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void write_trace_v1(const Trace& trace, std::ostream& out) {
  put(out, static_cast<std::uint32_t>(trace.thread_count()));
  put(out, static_cast<std::uint32_t>(trace.object_names().size()));
  for (const auto& [object, name] : trace.object_names()) {
    put(out, object);
    put_string(out, name);
  }
  put(out, static_cast<std::uint32_t>(trace.thread_names().size()));
  for (const auto& [tid, name] : trace.thread_names()) {
    put(out, tid);
    put_string(out, name);
  }
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    put(out, tid);
    put(out, static_cast<std::uint64_t>(events.size()));
    out.write(reinterpret_cast<const char*>(events.data()),
              static_cast<std::streamsize>(events.size() * sizeof(Event)));
  }
}

void write_trace_chunked(const Trace& trace, std::ostream& out,
                         std::uint32_t version) {
  if (!trace.object_names().empty()) {
    std::string payload;
    append_raw(payload, static_cast<std::uint32_t>(trace.object_names().size()));
    for (const auto& [object, name] : trace.object_names()) {
      append_raw(payload, object);
      append_string(payload, name);
    }
    put_chunk(out, ChunkKind::ObjectNames, payload);
  }
  if (!trace.thread_names().empty()) {
    std::string payload;
    append_raw(payload, static_cast<std::uint32_t>(trace.thread_names().size()));
    for (const auto& [tid, name] : trace.thread_names()) {
      append_raw(payload, tid);
      append_string(payload, name);
    }
    put_chunk(out, ChunkKind::ThreadNames, payload);
  }
  if (!trace.call_stacks().empty()) {
    std::string payload;
    append_raw(payload, static_cast<std::uint32_t>(trace.call_stacks().size()));
    for (const auto& [id, pcs] : trace.call_stacks()) {
      append_raw(payload, id);
      append_raw(payload, static_cast<std::uint32_t>(pcs.size()));
      for (const std::uint64_t pc : pcs) append_raw(payload, pc);
    }
    put_chunk(out, ChunkKind::CallStacks, payload);
  }
  if (!trace.frame_symbols().empty()) {
    std::string payload;
    append_raw(payload,
               static_cast<std::uint32_t>(trace.frame_symbols().size()));
    for (const auto& [pc, name] : trace.frame_symbols()) {
      append_raw(payload, pc);
      append_string(payload, name);
    }
    put_chunk(out, ChunkKind::FrameSymbols, payload);
  }
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
        append_raw(payload, tid);
        append_raw(payload, static_cast<std::uint32_t>(n));
        payload.append(reinterpret_cast<const char*>(events.data() + begin),
                       n * sizeof(Event));
        put_chunk(out, ChunkKind::Events, payload);
      }
    }
  }
  if (!trace.runtime_warnings().empty()) {
    std::string warnings;
    append_raw(warnings,
               static_cast<std::uint32_t>(trace.runtime_warnings().size()));
    for (const auto& [code, value] : trace.runtime_warnings()) {
      append_raw(warnings, code);
      append_raw(warnings, value);
    }
    put_chunk(out, ChunkKind::RuntimeWarnings, warnings);
  }
  std::string meta;
  append_raw(meta, trace.dropped_events());
  append_raw(meta, kMetaFlagCleanClose);
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
  append_raw(payload, tid);
  append_raw(payload, static_cast<std::uint32_t>(count));
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
  if (bytes < 8) return false;
  const auto* p = static_cast<const unsigned char*>(payload);
  std::memcpy(&tid, p, 4);
  std::memcpy(&count, p + 4, 4);
  if (tid > (1u << 20)) return false;
  // Every event costs at least one varint byte per field group, so a
  // count the payload cannot physically hold is corruption, not a huge
  // allocation request.
  return bytes - 8 >= 4ull * count;
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
  CLA_CHECK(is_supported_trace_version(version),
            "unsupported trace version " + std::to_string(version));
  out.write(kTraceMagic, sizeof kTraceMagic);
  put(out, version);
  if (version == kTraceVersionLegacy) {
    write_trace_v1(trace, out);
  } else {
    write_trace_chunked(trace, out, version);
  }
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
  CLA_CHECK(version == kTraceVersion || version == kTraceVersionV3,
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
  if (!robust_pwrite(init, sizeof init, 0) ||
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
    backoff_sleep(1'000);
  }
  return false;
}

bool ChunkedTraceWriter::robust_writev(::iovec* iov, int iovcnt,
                                       std::size_t total) {
  const bool teardown = teardown_.load(std::memory_order_relaxed);
  // While degraded (the disk just rejected a full retry ladder) each
  // chunk gets exactly one cheap attempt, so a persistently full disk
  // costs the traced app one failed syscall per chunk, not 250ms of
  // backoff per chunk.
  const unsigned max_retries =
      teardown ? kTeardownRetries
               : (degraded_.load(std::memory_order_relaxed)
                      ? 0
                      : kMaxTransientRetries);
  std::size_t remaining = total;
  unsigned retries = 0;
  std::uint64_t backoff = kInitialBackoffNs;
  while (remaining > 0) {
    const util::fault::WriteFault fault =
        util::fault::enabled() ? util::fault::on_write(remaining)
                               : util::fault::WriteFault{};
    ssize_t wrote;
    if (fault.fail) {
      errno = fault.error;
      wrote = -1;
    } else if (fault.max_bytes < remaining) {
      // Injected short write: submit a clamped iovec copy.
      struct iovec clamped[8];
      int clamped_cnt = 0;
      std::size_t budget = fault.max_bytes;
      for (int i = 0; i < iovcnt && budget > 0 && clamped_cnt < 8; ++i) {
        if (iov[i].iov_len == 0) continue;
        clamped[clamped_cnt] = iov[i];
        if (clamped[clamped_cnt].iov_len > budget)
          clamped[clamped_cnt].iov_len = budget;
        budget -= clamped[clamped_cnt].iov_len;
        ++clamped_cnt;
      }
      wrote = ::writev(fd_, clamped, clamped_cnt);
    } else {
      wrote = ::writev(fd_, iov, iovcnt);
    }
    if (wrote >= 0) {
      remaining -= static_cast<std::size_t>(wrote);
      // Short write: advance the iovec past the consumed bytes and
      // continue immediately (no retry charged).
      std::size_t consumed = static_cast<std::size_t>(wrote);
      for (int i = 0; i < iovcnt && consumed > 0; ++i) {
        const std::size_t take = std::min(consumed, iov[i].iov_len);
        iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + take;
        iov[i].iov_len -= take;
        consumed -= take;
      }
      continue;
    }
    if (errno == EINTR) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!transient_write_errno(errno)) {
      failed_.store(true, std::memory_order_relaxed);
      return false;
    }
    if (retries >= max_retries) return false;
    ++retries;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    backoff_sleep(backoff);
    backoff = std::min(backoff * 2, kMaxBackoffNs);
  }
  return true;
}

bool ChunkedTraceWriter::robust_pwrite(const void* buf, std::size_t len,
                                       std::uint64_t offset) {
  const unsigned max_retries = teardown_.load(std::memory_order_relaxed)
                                   ? kTeardownRetries
                                   : kMaxTransientRetries;
  const char* p = static_cast<const char*>(buf);
  std::size_t remaining = len;
  unsigned retries = 0;
  std::uint64_t backoff = kInitialBackoffNs;
  while (remaining > 0) {
    const ssize_t wrote =
        ::pwrite(fd_, p, remaining, static_cast<off_t>(offset));
    if (wrote >= 0) {
      p += wrote;
      offset += static_cast<std::uint64_t>(wrote);
      remaining -= static_cast<std::size_t>(wrote);
      continue;
    }
    if (errno == EINTR) {
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!transient_write_errno(errno) || retries >= max_retries) return false;
    ++retries;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    backoff_sleep(backoff);
    backoff = std::min(backoff * 2, kMaxBackoffNs);
  }
  return true;
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
  crc = util::crc32_final(crc);

  char header[16];
  std::memcpy(header, kChunkMagic, 4);
  const std::uint32_t kind_raw = static_cast<std::uint32_t>(kind);
  const std::uint32_t payload_bytes =
      static_cast<std::uint32_t>(head_len + body_len);
  std::memcpy(header + 4, &kind_raw, 4);
  std::memcpy(header + 8, &payload_bytes, 4);
  std::memcpy(header + 12, &crc, 4);

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
  const bool ok = robust_writev(iov, iovcnt, total);
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
    if (start >= 0 && ::ftruncate(fd_, start) == 0) {
      ::lseek(fd_, start, SEEK_SET);
    }
    degraded_.store(true, std::memory_order_relaxed);
    failed_chunks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!teardown) append_busy_.clear(std::memory_order_release);
  return ok;
}

bool ChunkedTraceWriter::write_events_raw(ThreadId tid, const Event* events,
                                          std::size_t count) {
  char head[8];
  const std::uint32_t n = static_cast<std::uint32_t>(count);
  std::memcpy(head, &tid, 4);
  std::memcpy(head + 4, &n, 4);
  return write_chunk(ChunkKind::Events, head, sizeof head, events,
                     count * sizeof(Event), count);
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
      ok = write_events_raw(tid, events + begin, n);
    }
    if (ok) written += n;
  }
  return written;
}

void ChunkedTraceWriter::write_object_name(ObjectId object,
                                           std::string_view name) {
  std::string payload;
  append_raw(payload, std::uint32_t{1});
  append_raw(payload, object);
  append_string(payload, name);
  write_chunk(ChunkKind::ObjectNames, payload.data(), payload.size(), nullptr, 0);
}

void ChunkedTraceWriter::write_thread_name(ThreadId tid, std::string_view name) {
  std::string payload;
  append_raw(payload, std::uint32_t{1});
  append_raw(payload, tid);
  append_string(payload, name);
  write_chunk(ChunkKind::ThreadNames, payload.data(), payload.size(), nullptr, 0);
}

void ChunkedTraceWriter::write_call_stack(std::uint64_t stack_id,
                                          const std::uint64_t* pcs,
                                          std::size_t depth) {
  if (depth > kMaxCallStackDepth) depth = kMaxCallStackDepth;
  std::string payload;
  append_raw(payload, std::uint32_t{1});
  append_raw(payload, stack_id);
  append_raw(payload, static_cast<std::uint32_t>(depth));
  for (std::size_t i = 0; i < depth; ++i) append_raw(payload, pcs[i]);
  write_chunk(ChunkKind::CallStacks, payload.data(), payload.size(), nullptr,
              0);
}

void ChunkedTraceWriter::write_frame_symbol(std::uint64_t pc,
                                            std::string_view name) {
  std::string payload;
  append_raw(payload, std::uint32_t{1});
  append_raw(payload, pc);
  append_string(payload, name);
  write_chunk(ChunkKind::FrameSymbols, payload.data(), payload.size(), nullptr,
              0);
}

void ChunkedTraceWriter::write_meta(std::uint64_t dropped_events,
                                    bool clean_close) {
  if (fd_ < 0) return;
  unsigned char payload[kMetaPayloadBytes];
  const std::uint32_t flags = clean_close ? kMetaFlagCleanClose : 0;
  std::memcpy(payload, &dropped_events, 8);
  std::memcpy(payload + 8, &flags, 4);
  unsigned char chunk[kChunkHeaderBytes + kMetaPayloadBytes];
  render_chunk(chunk, ChunkKind::Meta, payload, sizeof payload);
  robust_pwrite(chunk, sizeof chunk, kMetaChunkOffset);
}

void ChunkedTraceWriter::write_warnings(const RuntimeWarning* entries,
                                        std::size_t count) {
  if (fd_ < 0) return;
  unsigned char payload[kWarnPayloadBytes];
  render_warn_payload(payload, entries, count);
  unsigned char chunk[kChunkHeaderBytes + kWarnPayloadBytes];
  render_chunk(chunk, ChunkKind::RuntimeWarnings, payload, sizeof payload);
  robust_pwrite(chunk, sizeof chunk, kWarnChunkOffset);
}

namespace {

// Compaction-local I/O helpers: plain EINTR-restarting loops that fail on
// the first hard error. Compaction is opportunistic — when the disk is
// unhealthy it simply aborts and is retried later — so it does not need
// the appending writers' backoff ladder. Writes still consult the fault
// injector so tests can stage a compaction-time ENOSPC deterministically.
bool full_pread(int fd, void* buf, std::size_t len, std::uint64_t offset) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t got = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // shorter file than the chunk records say
    p += got;
    offset += static_cast<std::uint64_t>(got);
    len -= static_cast<std::size_t>(got);
  }
  return true;
}

bool full_write(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const util::fault::WriteFault fault =
        util::fault::enabled() ? util::fault::on_write(len)
                               : util::fault::WriteFault{};
    if (fault.fail) {
      errno = fault.error;
      return false;
    }
    const std::size_t attempt = std::min(len, fault.max_bytes);
    const ssize_t wrote = ::write(fd, p, attempt);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace

void ChunkedTraceWriter::maybe_compact() {
  if (kFirstAppendOffset + append_bytes_ <= ring_bytes_) return;
  if (compact_retry_at_ != 0 && append_bytes_ < compact_retry_at_) return;

  // Choose what survives: every name chunk (small, and required to keep
  // the retained events attributable) plus the newest event chunks up to
  // half the cap — leaving the other half as append headroom so
  // compactions amortize instead of firing on every chunk.
  const std::uint64_t keep_budget = ring_bytes_ / 2;
  std::uint64_t kept_bytes = 0;
  for (const ChunkRecord& c : ring_chunks_) {
    if (c.kind != ChunkKind::Events && c.kind != ChunkKind::EventsV3) {
      kept_bytes += c.bytes;
    }
  }
  std::size_t first_kept_event = ring_chunks_.size();
  bool kept_any_events = false;
  for (std::size_t i = ring_chunks_.size(); i-- > 0;) {
    const ChunkRecord& c = ring_chunks_[i];
    if (c.kind != ChunkKind::Events && c.kind != ChunkKind::EventsV3) continue;
    if (kept_any_events && kept_bytes + c.bytes > keep_budget) break;
    kept_bytes += c.bytes;
    kept_any_events = true;
    first_kept_event = i;
  }
  std::uint64_t retired_events = 0;
  std::uint64_t retired_chunks = 0;
  for (std::size_t i = 0; i < first_kept_event; ++i) {
    const ChunkRecord& c = ring_chunks_[i];
    if (c.kind != ChunkKind::Events && c.kind != ChunkKind::EventsV3) continue;
    retired_events += c.events;
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

  // Reserved region first (preamble + in-place warnings/meta), copied
  // verbatim so the latest counters written by write_meta/write_warnings
  // survive the rewrite.
  unsigned char reserved[kFirstAppendOffset];
  if (!full_pread(fd_, reserved, sizeof reserved, 0) ||
      !full_write(tmp_fd, reserved, sizeof reserved)) {
    abort_compaction();
    return;
  }
  std::vector<ChunkRecord> kept;
  kept.reserve(ring_chunks_.size() - retired_chunks);
  std::vector<unsigned char> copy_buf;
  std::uint64_t out_offset = kFirstAppendOffset;
  bool ok = true;
  for (std::size_t i = 0; i < ring_chunks_.size() && ok; ++i) {
    const ChunkRecord& c = ring_chunks_[i];
    const bool is_events =
        c.kind == ChunkKind::Events || c.kind == ChunkKind::EventsV3;
    if (is_events && i < first_kept_event) continue;
    copy_buf.resize(c.bytes);
    ok = full_pread(fd_, copy_buf.data(), c.bytes, c.offset) &&
         full_write(tmp_fd, copy_buf.data(), c.bytes);
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

/// Bounds-checked forward reader over one payload. Every get consumes
/// only on success, so a failed read leaves `pos` after the last whole
/// field (salvage's bytes-dropped accounting relies on that).
struct PayloadReader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return size - pos; }

  template <typename T>
  bool get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof value) return false;
    std::memcpy(&value, data + pos, sizeof value);
    pos += sizeof value;
    return true;
  }

  /// Reads a u32-length-prefixed name; `out` may be null (validate only).
  bool get_name(std::string* out) {
    std::uint32_t len = 0;
    if (!get(len) || len > kMaxNameBytes || remaining() < len) return false;
    if (out != nullptr) {
      out->assign(reinterpret_cast<const char*>(data + pos), len);
    }
    pos += len;
    return true;
  }
};

/// Applies the `u32 count | count * entry` body of a table chunk.
/// `entry(reader, apply)` parses one entry and, with `apply`, stores it.
/// Every entry is checked before any is stored, so a malformed chunk
/// applies nothing.
template <typename Entry>
bool apply_entries(PayloadReader in, Entry entry) {
  std::uint32_t count = 0;
  if (!in.get(count)) return false;
  PayloadReader check = in;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!entry(check, false)) return false;
  }
  for (std::uint32_t i = 0; i < count; ++i) entry(in, true);
  return true;
}

}  // namespace

bool parse_chunk_header(const void* p, ChunkHeader& header) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  if (std::memcmp(bytes, kChunkMagic, 4) != 0) return false;
  std::memcpy(&header.kind, bytes + 4, 4);
  std::memcpy(&header.payload_bytes, bytes + 8, 4);
  std::memcpy(&header.crc, bytes + 12, 4);
  return header.payload_bytes <= kMaxChunkPayload;
}

std::size_t find_chunk_magic(const void* p, std::size_t bytes) {
  const std::string_view hay(static_cast<const char*>(p), bytes);
  return hay.find(std::string_view(kChunkMagic, 4));
}

bool decode_chunk(std::uint32_t kind, const void* payload, std::size_t bytes,
                  TraceTables& tables, DecodedChunk& out) {
  out = DecodedChunk{};
  PayloadReader in{static_cast<const unsigned char*>(payload), bytes};
  switch (static_cast<ChunkKind>(kind)) {
    case ChunkKind::ObjectNames:
      return apply_entries(in, [&](PayloadReader& r, bool apply) {
        ObjectId object = 0;
        std::string name;
        if (!r.get(object) || !r.get_name(apply ? &name : nullptr)) {
          return false;
        }
        if (apply) tables.object_names[object] = std::move(name);
        return true;
      });
    case ChunkKind::ThreadNames:
      return apply_entries(in, [&](PayloadReader& r, bool apply) {
        ThreadId tid = 0;
        std::string name;
        if (!r.get(tid) || !r.get_name(apply ? &name : nullptr)) {
          return false;
        }
        if (apply) tables.thread_names[tid] = std::move(name);
        return true;
      });
    case ChunkKind::FrameSymbols:
      return apply_entries(in, [&](PayloadReader& r, bool apply) {
        std::uint64_t pc = 0;
        std::string name;
        if (!r.get(pc) || !r.get_name(apply ? &name : nullptr)) {
          return false;
        }
        if (apply) tables.frame_symbols[pc] = std::move(name);
        return true;
      });
    case ChunkKind::CallStacks:
      return apply_entries(in, [&](PayloadReader& r, bool apply) {
        std::uint64_t id = 0;
        std::uint32_t depth = 0;
        if (!r.get(id) || !r.get(depth) || depth > kMaxCallStackDepth ||
            r.remaining() < depth * sizeof(std::uint64_t)) {
          return false;
        }
        std::vector<std::uint64_t> pcs(depth);
        for (std::uint64_t& pc : pcs) r.get(pc);
        if (apply) tables.call_stacks[id] = std::move(pcs);
        return true;
      });
    case ChunkKind::Events: {
      if (!in.get(out.tid) || !in.get(out.count) || out.tid > kMaxThreadId ||
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
      if (!in.get(dropped) || !in.get(flags)) return false;
      tables.dropped_events = dropped;
      out.clean_close = (flags & kMetaFlagCleanClose) != 0;
      return true;
    }
    case ChunkKind::RuntimeWarnings: {
      std::uint32_t count = 0;
      if (!in.get(count) || in.remaining() != count * 12ull) return false;
      for (std::uint32_t i = 0; i < count; ++i) {
        RuntimeWarning w;
        in.get(w.code);
        in.get(w.value);
        // Code 0 marks an unused slot of the reserved in-place chunk.
        if (w.code != 0) tables.runtime_warnings[w.code] = w.value;
      }
      return true;
    }
  }
  return true;  // unknown kind from a newer minor writer: nothing to apply
}

bool unpack_events(const EventsChunk& chunk, Event* out) {
  // An empty run may come with a null `out`; a v3 one must be bare.
  if (chunk.count == 0) return !chunk.v3 || chunk.bytes == 8;
  if (chunk.v3) return decode_events_v3(chunk.data, chunk.bytes, out);
  std::memcpy(out, chunk.data, std::size_t{chunk.count} * sizeof(Event));
  for (std::uint32_t i = 0; i < chunk.count; ++i) out[i].tid = chunk.tid;
  return true;
}

V1Layout parse_v1(const unsigned char* p, std::size_t size,
                  TraceTables& tables) {
  PayloadReader in{p, size, 8};
  V1Layout layout;
  const auto stop = [&](const char* error) {
    layout.end = in.pos;
    layout.error = error;
    return layout;
  };

  std::uint32_t thread_count = 0;
  if (!in.get(thread_count)) return stop("trace stream truncated");
  if (thread_count > kMaxThreadId) {
    return stop("implausible thread count in trace");
  }
  std::uint32_t names = 0;
  if (!in.get(names)) return stop("trace stream truncated");
  for (std::uint32_t i = 0; i < names; ++i) {
    ObjectId object = 0;
    std::string name;
    if (!in.get(object) || !in.get_name(&name)) {
      return stop("trace stream truncated in name record");
    }
    tables.object_names[object] = std::move(name);
  }
  if (!in.get(names)) return stop("trace stream truncated");
  for (std::uint32_t i = 0; i < names; ++i) {
    ThreadId tid = 0;
    std::string name;
    if (!in.get(tid) || !in.get_name(&name)) {
      return stop("trace stream truncated in name record");
    }
    tables.thread_names[tid] = std::move(name);
  }

  for (std::uint32_t block = 0; block < thread_count; ++block) {
    ThreadId tid = 0;
    std::uint64_t declared = 0;
    if (!in.get(tid)) return stop("trace stream truncated");
    if (tid > kMaxThreadId) return stop("implausible thread id in trace");
    if (!in.get(declared)) return stop("trace stream truncated");
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
  CLA_CHECK(is_supported_trace_version(version),
            "unsupported trace version " + std::to_string(version));
  const Trace trace = read_trace_file(in_path);
  write_trace_file(trace, out_path, version);
}

bool parse_trace_format(std::string_view text, std::uint32_t& version) {
  if (text == "v1" || text == "1") {
    version = kTraceVersionLegacy;
  } else if (text == "v2" || text == "2") {
    version = kTraceVersion;
  } else if (text == "v3" || text == "3") {
    version = kTraceVersionV3;
  } else {
    return false;
  }
  return true;
}

}  // namespace cla::trace

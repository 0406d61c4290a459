// One crash-safe framed-file layer, shared by the `.clat` trace files
// (ChunkedTraceWriter, write_trace, MappedTrace, salvage, TraceTailer) and
// the `cla-agg` store (AggStore and its run-record payloads). Both are a
// preamble followed by self-checking frames
//
//   magic[4] | u32 kind | u32 payload_bytes | u32 crc32(payload) | payload
//
// ("CLCH" trace chunks, "CLAR" store records) whose payloads are
// little-endian u32/u64 fields and u32-length-prefixed strings. This is
// the one copy of each piece of that machinery:
//
//   * write_all / read_all, the retrying I/O loop: short transfers
//     continue where they stopped, EINTR restarts without spending a
//     retry, transient errors (transient_errno) walk a bounded doubling
//     backoff, anything else fails at once. Each call site passes its
//     ladder as a constant RetryPolicy:
//       - trace writer appends: kDiskRetry (1 retry in teardown, 0 while
//         degraded), injected;
//       - trace writer in-place Meta/RuntimeWarnings rewrites: kDiskRetry,
//         not injected;
//       - ring compaction: no retries, writes injected, reads not;
//       - agg store reads and writes: kDiskRetry, injected;
//       - tailer reads: kTailRetry, injected.
//     "Injected" attempts consult the CLA_FAULT_* knobs (faultinject.hpp)
//     and so advance their call and byte counters.
//   * The frame codec: render a header, check a frame (magic, the 64 MiB
//     cap, room in the buffer, CRC), find the next magic or valid frame.
//     Each scanner keeps its own damage policy on top: the strict loader
//     throws, salvage drops, the tailer resyncs in windows, the agg store
//     resyncs to the next valid frame.
//   * The payload field codec: put_u32 / put_u64 / put_str and FieldReader.
//
// The I/O loop and the frame renderers allocate nothing and take no lock,
// so the trace writer's crash spill may call them from a signal handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

struct iovec;  // <sys/uio.h>

namespace cla::util::io {

// ---- retrying I/O --------------------------------------------------------

/// Retry ladder of one call site.
struct RetryPolicy {
  unsigned max_retries = 0;  ///< transient-error retries before giving up
  std::uint64_t first_backoff_ns = 0;  ///< sleep before the first retry
  std::uint64_t max_backoff_ns = 0;    ///< cap on the doubling sleep
  bool inject = true;  ///< consult the CLA_FAULT_* knobs on every attempt

  constexpr RetryPolicy with_retries(unsigned n) const noexcept {
    return {n, first_backoff_ns, max_backoff_ns, inject};
  }
  constexpr RetryPolicy without_injection() const noexcept {
    return {max_retries, first_backoff_ns, max_backoff_ns, false};
  }
};

/// 8 retries sleeping 0.5, 1, 2 ... 64 ms (~250 ms worst case, paid only
/// while the disk is full or busy).
inline constexpr RetryPolicy kDiskRetry{8, 500'000, 64'000'000, true};
/// 4 retries sleeping 1, 2, 4, 8 ms: smooths over blips; the tailer's
/// caller owns the poll-level backoff.
inline constexpr RetryPolicy kTailRetry{4, 1'000'000, 8'000'000, true};

/// ENOSPC, EAGAIN/EWOULDBLOCK, EDQUOT and EIO are worth waiting out;
/// anything else (EBADF, EFBIG, ...) is permanent.
bool transient_errno(int err) noexcept;

/// Sleeps `ns` nanoseconds. Async-signal-safe.
void sleep_ns(std::uint64_t ns) noexcept;

enum class IoStatus { Ok, Short /* read_all hit end of file */, Failed };

struct IoResult {
  IoStatus status = IoStatus::Ok;
  int error = 0;              ///< errno of the failing attempt (Failed only)
  std::size_t done = 0;       ///< bytes transferred
  std::uint64_t retries = 0;  ///< EINTR restarts plus transient retries

  bool ok() const noexcept { return status == IoStatus::Ok; }
};

/// `offset` meaning "at the fd's file position" rather than a fixed one.
inline constexpr std::int64_t kFilePosition = -1;

/// Writes all of `iov[0..iovcnt)`, one writev (kFilePosition) or pwritev
/// (at `offset`) per attempt, advancing `iov` past what was written. On
/// Failed, errno holds `error`.
IoResult write_all(int fd, ::iovec* iov, int iovcnt, std::int64_t offset,
                   const RetryPolicy& policy) noexcept;
IoResult write_all(int fd, const void* buf, std::size_t len,
                   std::int64_t offset, const RetryPolicy& policy) noexcept;

/// Reads exactly `len` bytes, with read (kFilePosition, so pipes work
/// too) or pread at `offset`.
IoResult read_all(int fd, void* buf, std::size_t len, std::int64_t offset,
                  const RetryPolicy& policy) noexcept;

/// ftruncate restarted on EINTR; false on any other error.
bool truncate_to(int fd, std::uint64_t size) noexcept;

// ---- frame codec ---------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 16;
/// A larger size field is corruption, not a gigantic allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

struct FrameHeader {
  std::uint32_t kind = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
};

/// Renders `magic | kind | payload_bytes | crc` into out[0..16).
void render_frame_header(unsigned char* out, const char* magic,
                         std::uint32_t kind, std::uint32_t payload_bytes,
                         std::uint32_t crc) noexcept;
/// Renders header and payload into out[0..16 + len).
void render_frame(unsigned char* out, const char* magic, std::uint32_t kind,
                  const void* payload, std::size_t len) noexcept;
void append_frame(std::string& out, const char* magic, std::uint32_t kind,
                  const void* payload, std::size_t len);

/// Parses the header at `p`: false on a foreign magic or an over-cap size.
bool parse_frame_header(const void* p, const char* magic,
                        FrameHeader& header) noexcept;
/// True when `payload` (header.payload_bytes long) matches header.crc.
bool crc_matches(const FrameHeader& header, const void* payload) noexcept;

/// Verdict on the frame at one offset, in the order the checks run.
enum class FrameCheck {
  Ok,
  NoHeader,   ///< fewer than 16 bytes left, or a foreign magic
  BadSize,    ///< payload size above kMaxFramePayload
  Truncated,  ///< the payload runs past the end of the buffer
  BadCrc,
};

/// Checks the frame at buf[pos] of buf[0..size), filling `header` as far
/// as it parsed; an Ok frame's payload starts at pos + kFrameHeaderBytes.
FrameCheck check_frame(const unsigned char* buf, std::size_t size,
                       std::size_t pos, const char* magic,
                       FrameHeader& header) noexcept;

/// Offset of the first `magic` in p[0..bytes); npos when there is none.
std::size_t find_magic(const void* p, std::size_t bytes,
                       const char* magic) noexcept;
/// Offset >= `from` of the first frame in buf[0..size) that checks Ok,
/// whose header lands in `header`; npos when there is none.
std::size_t next_valid_frame(const unsigned char* buf, std::size_t size,
                             std::size_t from, const char* magic,
                             FrameHeader* header) noexcept;

// ---- payload field codec -------------------------------------------------

void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
/// u32 length, then the bytes. Throws util::Error above 4 GiB.
void put_str(std::string& out, std::string_view value);

/// Bounds-checked forward reader over one payload. A failed u32/u64
/// consumes nothing; a failed str() consumes only its length field, so
/// `pos` never passes a field that was not wholly present.
struct FieldReader {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return size - pos; }
  bool u32(std::uint32_t& value) noexcept { return take(&value, 4); }
  bool u64(std::uint64_t& value) noexcept { return take(&value, 8); }
  /// A u32-length-prefixed string of at most `max_len` bytes; `out` may
  /// be null (validate only).
  bool str(std::string* out, std::uint32_t max_len);

 private:
  bool take(void* out, std::size_t n) noexcept;
};

}  // namespace cla::util::io

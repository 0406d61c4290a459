#include "cla/util/framed_io.hpp"

#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "cla/util/crc32.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"

namespace cla::util::io {

namespace {

// Largest iovec array an injected short write clamps; callers pass <= 3.
constexpr int kMaxIov = 8;

// The loop both directions share. `attempt(cap, done)` moves at most
// `cap` more bytes, `done` having moved already, and returns the
// syscall's result (errno set on -1). Progress continues at once, a read
// of 0 is end of file, EINTR restarts for free, a transient error sleeps
// and retries while budget remains, anything else fails.
template <typename Attempt>
IoResult transfer(std::size_t len, bool reading, const RetryPolicy& policy,
                  Attempt attempt) noexcept {
  IoResult r;
  unsigned spent = 0;
  std::uint64_t backoff = policy.first_backoff_ns;
  while (r.done < len) {
    const std::size_t want = len - r.done;
    fault::Fault fault;
    if (policy.inject && fault::enabled()) {
      fault = reading ? fault::on_read(want) : fault::on_write(want);
    }
    if (fault.fail) errno = fault.error;
    const ssize_t n =
        fault.fail ? -1 : attempt(std::min(want, fault.max_bytes), r.done);
    if (n > 0 || (n == 0 && !reading)) {
      r.done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      r.status = IoStatus::Short;
      return r;
    }
    const int err = errno;
    if (err == EINTR) {
      ++r.retries;
      continue;
    }
    if (!transient_errno(err) || spent >= policy.max_retries) {
      r.status = IoStatus::Failed;
      r.error = err;
      return r;
    }
    ++spent;
    ++r.retries;
    sleep_ns(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff_ns);
  }
  return r;
}

}  // namespace

bool transient_errno(int err) noexcept {
  return err == ENOSPC || err == EAGAIN || err == EWOULDBLOCK ||
         err == EDQUOT || err == EIO;
}

void sleep_ns(std::uint64_t ns) noexcept {
  struct timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                     static_cast<long>(ns % 1'000'000'000)};
  ::nanosleep(&ts, nullptr);
}

IoResult write_all(int fd, ::iovec* iov, int iovcnt, std::int64_t offset,
                   const RetryPolicy& policy) noexcept {
  std::size_t len = 0;
  for (int i = 0; i < iovcnt; ++i) len += iov[i].iov_len;
  return transfer(len, false, policy, [&](std::size_t cap, std::size_t done) {
    const ::iovec* v = iov;
    int n = iovcnt;
    ::iovec clamped[kMaxIov];
    if (cap < len - done) {  // injected short write: submit a cut copy
      n = 0;
      for (int i = 0; i < iovcnt && cap > 0 && n < kMaxIov; ++i) {
        if (iov[i].iov_len == 0) continue;
        clamped[n] = {iov[i].iov_base, std::min(iov[i].iov_len, cap)};
        cap -= clamped[n++].iov_len;
      }
      v = clamped;
    }
    const ssize_t wrote =
        offset == kFilePosition
            ? ::writev(fd, v, n)
            : ::pwritev(fd, v, n, static_cast<off_t>(offset + done));
    std::size_t consumed = wrote > 0 ? static_cast<std::size_t>(wrote) : 0;
    for (int i = 0; i < iovcnt && consumed > 0; ++i) {
      const std::size_t take = std::min(consumed, iov[i].iov_len);
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + take;
      iov[i].iov_len -= take;
      consumed -= take;
    }
    return wrote;
  });
}

IoResult write_all(int fd, const void* buf, std::size_t len,
                   std::int64_t offset, const RetryPolicy& policy) noexcept {
  ::iovec iov{const_cast<void*>(buf), len};
  return write_all(fd, &iov, 1, offset, policy);
}

IoResult read_all(int fd, void* buf, std::size_t len, std::int64_t offset,
                  const RetryPolicy& policy) noexcept {
  return transfer(len, true, policy, [&](std::size_t cap, std::size_t done) {
    char* p = static_cast<char*>(buf) + done;
    return offset == kFilePosition
               ? ::read(fd, p, cap)
               : ::pread(fd, p, cap, static_cast<off_t>(offset + done));
  });
}

bool truncate_to(int fd, std::uint64_t size) noexcept {
  while (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

void render_frame_header(unsigned char* out, const char* magic,
                         std::uint32_t kind, std::uint32_t payload_bytes,
                         std::uint32_t crc) noexcept {
  std::memcpy(out, magic, 4);
  std::memcpy(out + 4, &kind, 4);
  std::memcpy(out + 8, &payload_bytes, 4);
  std::memcpy(out + 12, &crc, 4);
}

void render_frame(unsigned char* out, const char* magic, std::uint32_t kind,
                  const void* payload, std::size_t len) noexcept {
  render_frame_header(out, magic, kind, static_cast<std::uint32_t>(len),
                      crc32(payload, len));
  std::memcpy(out + kFrameHeaderBytes, payload, len);
}

void append_frame(std::string& out, const char* magic, std::uint32_t kind,
                  const void* payload, std::size_t len) {
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderBytes + len);
  render_frame(reinterpret_cast<unsigned char*>(out.data() + at), magic, kind,
               payload, len);
}

bool parse_frame_header(const void* p, const char* magic,
                        FrameHeader& header) noexcept {
  FieldReader r{static_cast<const unsigned char*>(p), kFrameHeaderBytes, 4};
  r.u32(header.kind);
  r.u32(header.payload_bytes);
  r.u32(header.crc);
  return std::memcmp(p, magic, 4) == 0 &&
         header.payload_bytes <= kMaxFramePayload;
}

bool crc_matches(const FrameHeader& header, const void* payload) noexcept {
  return crc32(payload, header.payload_bytes) == header.crc;
}

FrameCheck check_frame(const unsigned char* buf, std::size_t size,
                       std::size_t pos, const char* magic,
                       FrameHeader& header) noexcept {
  if (size - pos < kFrameHeaderBytes ||
      std::memcmp(buf + pos, magic, 4) != 0) {
    return FrameCheck::NoHeader;
  }
  if (!parse_frame_header(buf + pos, magic, header)) return FrameCheck::BadSize;
  if (size - pos - kFrameHeaderBytes < header.payload_bytes) {
    return FrameCheck::Truncated;
  }
  return crc_matches(header, buf + pos + kFrameHeaderBytes)
             ? FrameCheck::Ok
             : FrameCheck::BadCrc;
}

std::size_t find_magic(const void* p, std::size_t bytes,
                       const char* magic) noexcept {
  return std::string_view(static_cast<const char*>(p), bytes)
      .find(std::string_view(magic, 4));
}

std::size_t next_valid_frame(const unsigned char* buf, std::size_t size,
                             std::size_t from, const char* magic,
                             FrameHeader* header) noexcept {
  for (; from < size; ++from) {
    const std::size_t at = find_magic(buf + from, size - from, magic);
    if (at == std::string::npos) break;
    from += at;
    if (check_frame(buf, size, from, magic, *header) == FrameCheck::Ok) {
      return from;
    }
  }
  return std::string::npos;
}

void put_u32(std::string& out, std::uint32_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_u64(std::string& out, std::uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_str(std::string& out, std::string_view value) {
  CLA_CHECK(value.size() <= std::numeric_limits<std::uint32_t>::max(),
            "name too long");
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(value.data(), value.size());
}

bool FieldReader::take(void* out, std::size_t n) noexcept {
  if (remaining() < n) return false;
  std::memcpy(out, data + pos, n);
  pos += n;
  return true;
}

bool FieldReader::str(std::string* out, std::uint32_t max_len) {
  std::uint32_t len = 0;
  if (!u32(len) || len > max_len || remaining() < len) return false;
  if (out != nullptr) {
    out->assign(reinterpret_cast<const char*>(data + pos), len);
  }
  pos += len;
  return true;
}

}  // namespace cla::util::io

#include "cla/trace/tailer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "cla/trace/trace_io.hpp"
#include "cla/util/faultinject.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::trace {

namespace {

// Bytes scanned per resync step while hunting for the next chunk magic.
constexpr std::size_t kResyncWindow = 64 * 1024;
// In-place rewritten chunks (Meta, RuntimeWarnings) are small; anything
// claiming to be one but larger than this is treated as corruption.
constexpr std::size_t kMaxInplacePayload = 4096;

std::uint64_t monotonic_ns() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

TraceTailer::TraceTailer(std::string path)
    : TraceTailer(std::move(path), Options()) {}

TraceTailer::TraceTailer(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  util::fault::init();
  if (options_.backoff_initial_ms == 0) options_.backoff_initial_ms = 1;
  if (options_.backoff_max_ms < options_.backoff_initial_ms) {
    options_.backoff_max_ms = options_.backoff_initial_ms;
  }
}

TraceTailer::~TraceTailer() {
  if (fd_ >= 0) ::close(fd_);
}

util::io::IoResult TraceTailer::read_at(void* buf, std::size_t len,
                                        std::uint64_t offset) {
  const util::io::IoResult r =
      util::io::read_all(fd_, buf, len, offset, util::io::kTailRetry);
  io_retries_ += r.retries;
  return r;
}

bool TraceTailer::open_file() {
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  return fd_ >= 0;
}

void TraceTailer::reset_for_rotation() {
  consumed_ = 0;
  preamble_ok_ = false;
  clean_close_ = false;
  dropped_events_ = 0;
  runtime_warnings_.clear();
  inplace_offsets_.clear();
  ++generation_;
}

bool TraceTailer::deadline_hit(std::uint64_t start_ns) const {
  if (options_.poll_deadline_ms == 0) return false;
  return monotonic_ns() - start_ns >= options_.poll_deadline_ms * 1'000'000ull;
}

// Applies one CRC-valid chunk to the delta. Returns true when the chunk
// changed anything the caller should report as progress. A chunk that
// fails to decode is skipped whole (the writer never produces one; a
// fuzzer might). Meta and RuntimeWarnings feed the cumulative counters,
// never delta.chunk.
bool TraceTailer::consume_chunk(std::uint32_t kind,
                                const std::vector<unsigned char>& payload,
                                Delta& delta) {
  TraceTables decoded;
  DecodedChunk chunk;
  if (!decode_chunk(kind, payload.data(), payload.size(), decoded, chunk)) {
    return false;
  }
  switch (static_cast<ChunkKind>(kind)) {
    case ChunkKind::Events:
    case ChunkKind::EventsV3:
      // A run that fails to decode leaves at most an empty stream, which
      // IncrementalAnalyzer::append skips.
      if (chunk.count == 0 ||
          !append_events(chunk, delta.chunk.thread_stream(chunk.tid))) {
        return false;
      }
      delta.events += chunk.count;
      return true;
    case ChunkKind::Meta: {
      bool changed = false;
      if (decoded.dropped_events > dropped_events_) {
        delta.dropped_delta += decoded.dropped_events - dropped_events_;
        dropped_events_ = decoded.dropped_events;
        changed = true;
      }
      if (chunk.clean_close && !clean_close_) {
        clean_close_ = true;
        delta.clean_close = true;
        changed = true;
      }
      return changed;
    }
    case ChunkKind::RuntimeWarnings: {
      bool changed = false;
      for (const auto& [code, value] : decoded.runtime_warnings) {
        auto [it, inserted] = runtime_warnings_.try_emplace(code, value);
        if (!inserted && it->second != value) {
          it->second = value;
          inserted = true;
        }
        changed |= inserted;
      }
      return changed;
    }
    default:  // names, call stacks, frame symbols; unknown kinds add nothing
      return delta.chunk.tables().merge(decoded);
  }
}

// Re-reads the Meta/RuntimeWarnings chunks the writer rewrites in place
// after we first consumed them. A rewrite torn mid-read fails CRC and is
// skipped — the previous good counters stand until the next poll.
void TraceTailer::refresh_inplace_chunks(Delta& delta, bool& progress) {
  unsigned char header[util::io::kFrameHeaderBytes];
  for (const std::uint64_t offset : inplace_offsets_) {
    if (!read_at(header, sizeof header, offset).ok()) continue;
    util::io::FrameHeader h;
    if (!util::io::parse_frame_header(header, kChunkMagic, h) ||
        (h.kind != static_cast<std::uint32_t>(ChunkKind::Meta) &&
         h.kind != static_cast<std::uint32_t>(ChunkKind::RuntimeWarnings)) ||
        h.payload_bytes > kMaxInplacePayload) {
      continue;
    }
    payload_buf_.resize(h.payload_bytes);
    if (!read_at(payload_buf_.data(), h.payload_bytes,
                 offset + util::io::kFrameHeaderBytes)
             .ok() ||
        !util::io::crc_matches(h, payload_buf_.data())) {
      continue;
    }
    if (consume_chunk(h.kind, payload_buf_, delta)) progress = true;
  }
}

TraceTailer::PollStatus TraceTailer::poll(Delta& delta) {
  delta = Delta{};
  const std::uint64_t start_ns = monotonic_ns();
  const auto finish = [&](PollStatus status) {
    if (status == PollStatus::Idle) {
      if (idle_polls_ < 31) ++idle_polls_;
    } else {
      idle_polls_ = 0;
    }
    delta.runtime_warnings = runtime_warnings_;
    return status;
  };

  // Open (or re-open after rotation). A file that does not exist yet is
  // Idle — always-on monitors routinely start before their writers.
  if (fd_ < 0 && !open_file()) {
    return finish(errno == ENOENT ? PollStatus::Idle : PollStatus::IoError);
  }

  // Rotation / removal detection: compare the path's identity with the
  // fd we are draining.
  struct stat path_st{};
  const bool path_exists = ::stat(path_.c_str(), &path_st) == 0;
  struct stat fd_st{};
  if (::fstat(fd_, &fd_st) != 0) {
    ::close(fd_);
    fd_ = -1;
    return finish(PollStatus::IoError);
  }
  if (path_exists && (path_st.st_ino != fd_st.st_ino ||
                      path_st.st_dev != fd_st.st_dev)) {
    // Replaced under us (ring compaction rename, log rotation). Restart
    // at the new file on the next poll; the caller resets its analysis.
    ::close(fd_);
    fd_ = -1;
    reset_for_rotation();
    return finish(PollStatus::Rotated);
  }
  const std::uint64_t size = static_cast<std::uint64_t>(fd_st.st_size);
  if (size < consumed_) {
    // Truncated in place (a restarted writer O_TRUNCed the same inode).
    reset_for_rotation();
    return finish(PollStatus::Rotated);
  }

  bool progress = false;

  // Preamble: 8 bytes of magic + version. Fewer bytes = the writer has
  // not finished its first write; wrong bytes = not a trace file.
  if (!preamble_ok_) {
    if (size < 8) return finish(PollStatus::Idle);
    unsigned char preamble[8];
    const util::io::IoResult r = read_at(preamble, sizeof preamble, 0);
    if (r.status == util::io::IoStatus::Failed) {
      return finish(PollStatus::IoError);
    }
    if (r.status == util::io::IoStatus::Short) return finish(PollStatus::Idle);
    std::uint32_t version = 0;
    std::memcpy(&version, preamble + 4, 4);
    if (std::memcmp(preamble, kTraceMagic, 4) != 0 ||
        !is_writable_trace_version(version)) {
      return finish(PollStatus::IoError);  // v1 has no chunks to tail
    }
    preamble_ok_ = true;
    consumed_ = 8;
  }

  refresh_inplace_chunks(delta, progress);
  // A read that failed past its retries ends the poll; what it decoded
  // so far still counts.
  const auto read_failed = [&] {
    return finish(progress ? PollStatus::Progress : PollStatus::IoError);
  };

  // Main loop: consume complete CRC-valid chunks until the tail runs out,
  // turns out to be torn, or the poll deadline hits.
  unsigned char header[util::io::kFrameHeaderBytes];
  while (consumed_ + util::io::kFrameHeaderBytes <= size) {
    if (deadline_hit(start_ns)) break;
    util::io::IoResult r = read_at(header, sizeof header, consumed_);
    if (r.status == util::io::IoStatus::Failed) return read_failed();
    if (r.status == util::io::IoStatus::Short) break;

    util::io::FrameHeader h;
    if (util::io::parse_frame_header(header, kChunkMagic, h)) {
      const std::uint64_t chunk_end =
          consumed_ + util::io::kFrameHeaderBytes + h.payload_bytes;
      if (chunk_end > size) break;  // partial tail: "not yet"
      payload_buf_.resize(h.payload_bytes);
      r = read_at(payload_buf_.data(), h.payload_bytes,
                  consumed_ + util::io::kFrameHeaderBytes);
      if (r.status == util::io::IoStatus::Failed) return read_failed();
      if (r.status == util::io::IoStatus::Short) break;
      if (util::io::crc_matches(h, payload_buf_.data())) {
        if (consume_chunk(h.kind, payload_buf_, delta)) progress = true;
        if ((h.kind == static_cast<std::uint32_t>(ChunkKind::Meta) ||
             h.kind ==
                 static_cast<std::uint32_t>(ChunkKind::RuntimeWarnings)) &&
            inplace_offsets_.size() < 8 &&
            std::find(inplace_offsets_.begin(), inplace_offsets_.end(),
                      consumed_) == inplace_offsets_.end()) {
          inplace_offsets_.push_back(consumed_);
        }
        consumed_ = chunk_end;
        continue;
      }
      if (chunk_end == size) break;  // torn final chunk: wait for the writer
      // CRC-bad with data behind it: genuine corruption, resync below.
    }

    // Resync: scan forward for the next chunk magic, counting everything
    // skipped as loss. Bounded per iteration; the loop condition and the
    // deadline keep a pathological file from monopolizing the poll.
    std::uint64_t scan = consumed_ + 1;
    std::uint64_t found = 0;
    while (found == 0 && scan + 4 <= size) {
      if (deadline_hit(start_ns)) break;
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(kResyncWindow, size - scan));
      payload_buf_.resize(want);
      const util::io::IoResult window =
          read_at(payload_buf_.data(), want, scan);
      if (window.status == util::io::IoStatus::Failed) return read_failed();
      if (window.done < 4) break;
      const std::size_t at =
          util::io::find_magic(payload_buf_.data(), window.done, kChunkMagic);
      if (at != std::string::npos) {
        found = scan + at;
      } else {
        scan += window.done - 3;  // keep a 3-byte overlap
      }
    }
    if (found == 0) {
      // No magic ahead: skip what we scanned and wait for more data.
      const std::uint64_t skipped = std::max(scan, consumed_ + 1) - consumed_;
      delta.skipped_bytes += skipped;
      skipped_total_ += skipped;
      consumed_ += skipped;
      break;
    }
    delta.skipped_bytes += found - consumed_;
    skipped_total_ += found - consumed_;
    consumed_ = found;
  }

  if (progress || delta.skipped_bytes > 0) return finish(PollStatus::Progress);
  if (!path_exists && consumed_ >= size) return finish(PollStatus::Removed);
  return finish(PollStatus::Idle);
}

std::uint32_t TraceTailer::suggested_backoff_ms() const noexcept {
  if (idle_polls_ == 0) return 0;
  const std::uint64_t shifted = static_cast<std::uint64_t>(
                                    options_.backoff_initial_ms)
                                << std::min(idle_polls_ - 1, 20u);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(shifted, options_.backoff_max_ms));
}

}  // namespace cla::trace

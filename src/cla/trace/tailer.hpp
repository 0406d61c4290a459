// Fault-tolerant live tailer for a `.clat` file that is still being
// written (the always-on loop's read side).
//
// The strict loader (MappedTrace) treats a missing clean-close marker or
// a torn final chunk as an error, because for an offline file that *is*
// an error. For a live file it just means "the writer has not caught up
// yet". TraceTailer makes that distinction: it consumes complete
// CRC-valid chunks as they land — decoded by the same decode_chunk as
// every other reader — and classifies everything else —
//
//   * a partial chunk at end-of-file      -> Idle ("not yet", wait)
//   * no new bytes at all                 -> Idle (back off)
//   * CRC-bad bytes with data after them  -> resync: scan forward to the
//       next chunk magic and count the skipped bytes as loss
//   * the path's inode changed, or the    -> Rotated: reopen from the top
//       file shrank under us                 (ring compaction rename()s a
//                                            compacted file into place, a
//                                            restarted writer O_TRUNCs it)
//   * the path vanished                   -> Removed once the old fd is
//                                            fully drained
//   * a read failed past the retry budget -> IoError, position unchanged
//
// Reads go through the shared retrying loop (util/framed_io.hpp) on the
// tailer ladder — EINTR restarts, 4 retries sleeping 1/2/4/8 ms on
// transient errors — and consult the CLA_FAULT_READ_* injection knobs
// (mirroring the write side), so every one of these transitions has a
// deterministic test.
//
// The in-place Meta/RuntimeWarnings chunks the streaming writer rewrites
// (drop counters, ring-retirement counts) are re-read on every poll; a
// rewrite torn mid-pread fails its CRC and the previous good value is
// kept. Polls honor an optional deadline: a poll that runs out of budget
// returns what it decoded and resumes from the same offset next time, so
// a stuck filesystem can never hang the caller.
//
// Each Progress delta is a trace::Trace fragment whose per-thread event
// runs append in on-disk order, plus the name, call-stack and
// frame-symbol entries that landed — exactly what
// IncrementalAnalyzer::append expects. A CRC-valid chunk that fails to
// decode is skipped whole. One tailer per file; not thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cla/trace/trace.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::trace {

class TraceTailer {
 public:
  struct Options {
    /// Per-poll time budget in milliseconds (0 = unbounded). A poll that
    /// exceeds it returns early with whatever it decoded so far.
    std::uint64_t poll_deadline_ms = 0;
    /// Bounds for suggested_backoff_ms(): exponential from `initial`,
    /// doubling per consecutive idle poll, capped at `max`.
    std::uint32_t backoff_initial_ms = 10;
    std::uint32_t backoff_max_ms = 1000;
  };

  enum class PollStatus {
    Idle,      ///< nothing new: file absent, torn tail, or no new chunks
    Progress,  ///< the delta carries new events / names / counters
    Rotated,   ///< file replaced or truncated under us; restart analysis
    Removed,   ///< file unlinked and fully drained; no new file appeared
    IoError,   ///< preamble corrupt or a read failed past the retry budget
  };

  /// What one Progress poll delivered. Events and table entries arrive as
  /// a Trace fragment; the cumulative file-level counters (dropped events,
  /// runtime warnings) stay out of it and are exposed both raw and as
  /// deltas.
  struct Delta {
    Trace chunk;                      ///< new event runs + table entries
    std::uint64_t events = 0;         ///< events in `chunk`
    std::uint64_t dropped_delta = 0;  ///< growth of the Meta drop counter
    std::uint64_t skipped_bytes = 0;  ///< corrupt bytes resynced over
    bool clean_close = false;         ///< writer closed the stream cleanly
    /// Cumulative CLA_W_* counters from the RuntimeWarnings chunks.
    std::map<std::uint32_t, std::uint64_t> runtime_warnings;
  };

  explicit TraceTailer(std::string path);
  TraceTailer(std::string path, Options options);
  ~TraceTailer();

  TraceTailer(const TraceTailer&) = delete;
  TraceTailer& operator=(const TraceTailer&) = delete;

  /// Advances over everything new and complete in the file. `delta` is
  /// cleared first and filled only on Progress.
  PollStatus poll(Delta& delta);

  /// How long the caller should sleep before the next poll, grown
  /// exponentially across consecutive non-Progress polls.
  std::uint32_t suggested_backoff_ms() const noexcept;

  const std::string& path() const noexcept { return path_; }
  /// Bytes of the current file consumed so far (preamble + chunks).
  std::uint64_t consumed_bytes() const noexcept { return consumed_; }
  /// Rotations observed (each one restarts consumed_bytes from 0).
  std::uint64_t generation() const noexcept { return generation_; }
  /// True once a clean-close Meta chunk was read from the current file.
  bool writer_finished() const noexcept { return clean_close_; }
  /// Cumulative dropped-event count from the current file's Meta chunk.
  std::uint64_t dropped_events() const noexcept { return dropped_events_; }
  /// Total read retries (EINTR + transient errors) over the tailer's life.
  std::uint64_t io_retries() const noexcept { return io_retries_; }
  /// Total corrupt bytes skipped by resync over the tailer's life.
  std::uint64_t total_skipped_bytes() const noexcept { return skipped_total_; }

 private:
  /// Reads through the shared retrying loop on the tailer ladder and
  /// counts its retries.
  util::io::IoResult read_at(void* buf, std::size_t len, std::uint64_t offset);
  bool open_file();
  void reset_for_rotation();
  bool deadline_hit(std::uint64_t start_ns) const;
  bool consume_chunk(std::uint32_t kind, const std::vector<unsigned char>& payload,
                     Delta& delta);
  void refresh_inplace_chunks(Delta& delta, bool& progress);

  std::string path_;
  Options options_;
  int fd_ = -1;
  std::uint64_t consumed_ = 0;
  std::uint64_t generation_ = 0;
  bool preamble_ok_ = false;
  bool clean_close_ = false;
  std::uint64_t dropped_events_ = 0;
  std::map<std::uint32_t, std::uint64_t> runtime_warnings_;
  /// File offsets of Meta / RuntimeWarnings chunks already consumed; the
  /// streaming writer rewrites these in place, so they are re-read every
  /// poll (bounded: a streamed file has exactly two).
  std::vector<std::uint64_t> inplace_offsets_;
  std::uint32_t idle_polls_ = 0;
  std::uint64_t io_retries_ = 0;
  std::uint64_t skipped_total_ = 0;
  std::vector<unsigned char> payload_buf_;
};

}  // namespace cla::trace

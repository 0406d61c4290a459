// Zero-copy, read-only view of a trace: the analysis stages' input.
//
// The analysis pipeline never mutates events, so it does not need the
// owning AoS container (Trace) — it needs positional access to four
// columns per thread: ts, object, arg, type. TraceView provides exactly
// that through strided column accessors which uniformly describe
//
//   - a borrowed in-memory Trace (AoS, stride = sizeof(Event)),
//   - event arrays viewed in place in the bytes of a `.clat` v1/v2 file,
//     mapped or read from a stream (AoS, no alignment assumed — loads
//     are memcpy),
//   - SoA columns decoded from compact `.clat` v3 chunks
//     (stride = element size).
//
// Lifetime/ownership rules (also DESIGN.md §10): a TraceView owns
// nothing. It stays valid while its backing store lives and is not
// modified — the Trace it borrows, or the MappedTrace that produced it
// (which keeps the file bytes and any decoded columns alive). Paths
// that rewrite a trace (validation's repair, phase clipping, salvage's
// repair) read a view and write a new Trace; only a caller that wants
// an owned copy of the events as they are calls materialize().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cla/trace/event.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"

namespace cla::trace {

/// True when this platform can mmap trace files (the zero-copy load
/// path); false means MappedTrace reads files into memory instead.
bool mmap_supported() noexcept;

/// Strided read-only column. `operator[]` loads via memcpy, so the base
/// pointer may have any alignment (file bytes at arbitrary offsets).
template <typename T>
class Column {
 public:
  Column() = default;
  Column(const void* base, std::size_t stride) noexcept
      : base_(static_cast<const unsigned char*>(base)), stride_(stride) {}

  T operator[](std::size_t i) const noexcept {
    T value;
    std::memcpy(&value, base_ + i * stride_, sizeof value);
    return value;
  }

 private:
  const unsigned char* base_ = nullptr;
  std::size_t stride_ = 0;
};

/// One thread's event stream as four strided columns. Mimics the
/// read-side API of std::span<const Event> (size / operator[] / front /
/// back / iteration) so index/resolve/walk code is storage-agnostic;
/// element access assembles an Event by value. Hot loops that only need
/// one field should use the column accessors (ts_at etc.) instead.
class EventsView {
 public:
  EventsView() = default;

  /// AoS view over `count` tightly packed 32-byte event records starting
  /// at `events` (any alignment — e.g. raw bytes of a mapped file).
  EventsView(const void* events, std::size_t count, ThreadId tid) noexcept
      : ts_(static_cast<const unsigned char*>(events) + offsetof(Event, ts),
            sizeof(Event)),
        object_(static_cast<const unsigned char*>(events) +
                    offsetof(Event, object),
                sizeof(Event)),
        arg_(static_cast<const unsigned char*>(events) + offsetof(Event, arg),
             sizeof(Event)),
        type_(static_cast<const unsigned char*>(events) + offsetof(Event, type),
              sizeof(Event)),
        count_(count),
        tid_(tid) {}

  /// SoA view over four parallel column arrays of length `count`.
  EventsView(const std::uint64_t* ts, const ObjectId* object,
             const std::uint64_t* arg, const std::uint16_t* type,
             std::size_t count, ThreadId tid) noexcept
      : ts_(ts, sizeof *ts),
        object_(object, sizeof *object),
        arg_(arg, sizeof *arg),
        type_(type, sizeof *type),
        count_(count),
        tid_(tid) {}

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  ThreadId tid() const noexcept { return tid_; }

  std::uint64_t ts_at(std::size_t i) const noexcept { return ts_[i]; }
  ObjectId object_at(std::size_t i) const noexcept { return object_[i]; }
  std::uint64_t arg_at(std::size_t i) const noexcept { return arg_[i]; }
  EventType type_at(std::size_t i) const noexcept {
    return static_cast<EventType>(type_[i]);
  }

  Event operator[](std::size_t i) const noexcept {
    return Event{ts_[i], object_[i], arg_[i],
                 static_cast<EventType>(type_[i]), 0, tid_};
  }
  Event front() const noexcept { return (*this)[0]; }
  Event back() const noexcept { return (*this)[count_ - 1]; }

  /// Random-access iterator yielding Event by value (proxy iteration:
  /// `for (const Event& e : view)` binds to a temporary per step).
  class iterator {
   public:
    using value_type = Event;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const EventsView* view, std::size_t i) noexcept
        : view_(view), i_(i) {}

    Event operator*() const noexcept { return (*view_)[i_]; }
    iterator& operator++() noexcept { ++i_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++i_; return t; }
    friend bool operator==(const iterator&, const iterator&) = default;
    friend difference_type operator-(const iterator& a,
                                     const iterator& b) noexcept {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }

   private:
    const EventsView* view_ = nullptr;
    std::size_t i_ = 0;
  };

  iterator begin() const noexcept { return {this, 0}; }
  iterator end() const noexcept { return {this, count_}; }

 private:
  Column<std::uint64_t> ts_;
  Column<ObjectId> object_;
  Column<std::uint64_t> arg_;
  Column<std::uint16_t> type_;
  std::size_t count_ = 0;
  ThreadId tid_ = 0;
};

/// Forward cursor over one thread's event stream, built for chunked and
/// append-aware scans: pass-2 rescans pull bounded index ranges with
/// next(), and incremental analysis re-attaches a saved position to the
/// refreshed view after the backing trace grows, then seek_ts()es to the
/// re-resolution boundary. The cursor borrows its EventsView and never
/// rewinds; it is only as valid as the view it was constructed from, so
/// after an append, rebuild it from the new view at the old position().
class ChunkCursor {
 public:
  /// Half-open index range [begin, end) within the thread's stream.
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool empty() const noexcept { return begin == end; }
    std::uint32_t size() const noexcept { return end - begin; }
  };

  ChunkCursor() = default;
  explicit ChunkCursor(const EventsView& events,
                       std::uint32_t start = 0) noexcept
      : events_(&events),
        pos_(std::min<std::uint32_t>(
            start, static_cast<std::uint32_t>(events.size()))) {}

  std::uint32_t position() const noexcept { return pos_; }
  bool done() const noexcept {
    return events_ == nullptr || pos_ >= events_->size();
  }
  std::uint32_t remaining() const noexcept {
    return done() ? 0 : static_cast<std::uint32_t>(events_->size()) - pos_;
  }

  /// Claims the next at-most-`max_events` events, advancing the cursor.
  /// Returns an empty Range at end of stream (until the trace grows and
  /// the cursor is re-attached).
  Range next(std::uint32_t max_events) noexcept {
    const Range r{pos_, pos_ + std::min(max_events, remaining())};
    pos_ = r.end;
    return r;
  }

  /// Advances to the first unconsumed event with ts >= `ts` (binary
  /// search over the monotone ts column; never rewinds). Returns the new
  /// position.
  std::uint32_t seek_ts(std::uint64_t ts) noexcept {
    std::uint32_t lo = pos_;
    auto hi = static_cast<std::uint32_t>(events_ ? events_->size() : 0);
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (events_->ts_at(mid) < ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos_ = std::max(pos_, lo);
    return pos_;
  }

 private:
  const EventsView* events_ = nullptr;
  std::uint32_t pos_ = 0;
};

/// Non-owning, cheaply copyable read-side handle on a whole trace:
/// per-thread EventsViews plus the name tables and recorder metadata.
/// Mirrors the read-only surface of Trace so the analysis stages can
/// consume either storage through one type.
class TraceView {
 public:
  TraceView() = default;

  /// Borrows `trace` (zero-copy, AoS columns). The view is valid while
  /// `trace` outlives it and is not modified.
  explicit TraceView(const Trace& trace);

  std::size_t thread_count() const noexcept { return threads_.size(); }
  const EventsView& thread_events(ThreadId tid) const;

  /// Cursor over `tid`'s stream starting at index `start` (clamped to
  /// the stream size) — the entry point for chunked/append-aware scans.
  ChunkCursor thread_cursor(ThreadId tid, std::uint32_t start = 0) const {
    return ChunkCursor(thread_events(tid), start);
  }

  std::size_t event_count() const noexcept;
  std::uint64_t start_ts() const noexcept;
  std::uint64_t end_ts() const noexcept;

  const std::map<ObjectId, std::string>& object_names() const noexcept {
    return tables_->object_names;
  }
  const std::map<ThreadId, std::string>& thread_names() const noexcept {
    return tables_->thread_names;
  }
  std::string object_display_name(ObjectId object,
                                  std::string_view prefix) const;
  std::string thread_display_name(ThreadId tid) const;

  std::uint64_t dropped_events() const noexcept {
    return tables_->dropped_events;
  }

  /// Runtime warnings from the producing process (CLA_W_* DiagCode value
  /// -> count), mirroring Trace::runtime_warnings().
  const std::map<std::uint32_t, std::uint64_t>& runtime_warnings()
      const noexcept {
    return tables_->runtime_warnings;
  }

  /// Acquisition call-stack table (stack id -> pc chain) and frame-symbol
  /// table (pc -> name), mirroring Trace::call_stacks()/frame_symbols().
  /// Empty for traces recorded without callsite capture.
  const std::map<std::uint64_t, std::vector<std::uint64_t>>& call_stacks()
      const noexcept {
    return tables_->call_stacks;
  }
  const std::map<std::uint64_t, std::string>& frame_symbols() const noexcept {
    return tables_->frame_symbols;
  }

  /// All non-event tables of the viewed trace.
  const TraceTables& tables() const noexcept { return *tables_; }

  /// Deep-copies the viewed events and names into an owning, mutable
  /// Trace (behind read_trace() and read_trace_file()).
  Trace materialize() const;

 private:
  friend class MappedTrace;

  static const TraceTables& empty_tables() noexcept;

  std::vector<EventsView> threads_;
  const TraceTables* tables_ = &empty_tables();
};

/// Reads a whole trace file into memory. Trace files are opened in one
/// place: this and MappedTrace(path) share it, and a failure throws
/// cla::util::TraceIoError carrying errno.
std::vector<unsigned char> read_trace_bytes(const std::string& path);
/// Reads everything left in `in` (the byte source of the stream loaders).
std::vector<unsigned char> read_trace_bytes(std::istream& in);

/// The strict `.clat` loader (v1/v2/v3) behind every non-salvage read:
/// read_trace, read_trace_file, Pipeline::load_file and load_stream all
/// go through it. Bad magic, CRC mismatch, a missing clean-close marker
/// and truncation all throw cla::util::Error, so `--salvage` guidance
/// stays consistent across load paths.
///
/// Chunk payloads go through decode_chunk (trace_io.hpp), the decoder
/// salvage and the live tailer share. v1/v2 event arrays are viewed
/// directly in the file bytes (a thread split across several v2 chunks
/// is compacted into one owned buffer); v3 chunks are varint-decoded
/// once into owned SoA columns. view() and everything it hands out
/// remain valid exactly as long as this object lives; it is immovable so
/// those interior pointers can never dangle.
class MappedTrace {
 public:
  /// Maps and parses `path` (reads it into memory where mmap is not
  /// available). Throws cla::util::TraceIoError when the file cannot be
  /// opened and cla::util::Error on malformed input.
  explicit MappedTrace(const std::string& path);
  /// Parses a trace already in memory (e.g. a stream read to its end).
  /// The bytes are owned and viewed in place exactly like a mapping.
  explicit MappedTrace(std::vector<unsigned char> bytes);
  ~MappedTrace();

  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  const TraceView& view() const noexcept { return view_; }
  std::uint32_t version() const noexcept { return version_; }

  /// Total file size (bench reporting: bytes per event on disk).
  std::size_t file_bytes() const noexcept { return size_; }

 private:
  void parse();
  void load_v1();
  void load_chunked();
  /// Builds the per-thread views from each thread's event runs, in file
  /// order (the writer's flush order, which is timestamp order).
  void build_views(const std::vector<std::vector<EventsChunk>>& segments);

  struct SoaColumns {
    std::vector<std::uint64_t> ts;
    std::vector<ObjectId> object;
    std::vector<std::uint64_t> arg;
    std::vector<std::uint16_t> type;
  };

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                        // data_ is an mmap region
  std::vector<unsigned char> owned_;           // data_ otherwise
  std::uint32_t version_ = 0;
  std::vector<SoaColumns> soa_;               // v3-decoded threads
  std::vector<util::GrowArray<Event>> compacted_;  // multi-chunk / mixed
  TraceTables tables_;
  TraceView view_;
};

}  // namespace cla::trace

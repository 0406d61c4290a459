#include "cla/trace/trace_view.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#define CLA_HAVE_MMAP 1
#include <sys/mman.h>
#else
#define CLA_HAVE_MMAP 0
#endif

#include <cerrno>
#include <cstring>
#include <istream>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::trace {

bool mmap_supported() noexcept { return CLA_HAVE_MMAP != 0; }

// ---- TraceView -----------------------------------------------------------

TraceView::TraceView(const Trace& trace) : tables_(&trace.tables()) {
  threads_.reserve(trace.thread_count());
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    threads_.emplace_back(events.data(), events.size(), tid);
  }
}

const EventsView& TraceView::thread_events(ThreadId tid) const {
  CLA_CHECK(tid < threads_.size(), "thread id out of range");
  return threads_[tid];
}

std::size_t TraceView::event_count() const noexcept {
  std::size_t n = 0;
  for (const auto& t : threads_) n += t.size();
  return n;
}

std::uint64_t TraceView::start_ts() const noexcept {
  std::uint64_t ts = ~0ull;
  for (const auto& t : threads_)
    if (!t.empty()) ts = std::min(ts, t.ts_at(0));
  return ts == ~0ull ? 0 : ts;
}

std::uint64_t TraceView::end_ts() const noexcept {
  std::uint64_t ts = 0;
  for (const auto& t : threads_)
    if (!t.empty()) ts = std::max(ts, t.ts_at(t.size() - 1));
  return ts;
}

std::string TraceView::object_display_name(ObjectId object,
                                           std::string_view prefix) const {
  auto it = tables_->object_names.find(object);
  if (it != tables_->object_names.end()) return it->second;
  return std::string(prefix) + "@" + std::to_string(object);
}

std::string TraceView::thread_display_name(ThreadId tid) const {
  auto it = tables_->thread_names.find(tid);
  if (it != tables_->thread_names.end()) return it->second;
  return "T" + std::to_string(tid);
}

Trace TraceView::materialize() const {
  Trace trace;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    const EventsView& events = threads_[tid];
    util::GrowArray<Event>& stream = trace.thread_stream(tid);
    stream.resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) stream[i] = events[i];
  }
  trace.tables() = *tables_;
  return trace;
}

const TraceTables& TraceView::empty_tables() noexcept {
  static const TraceTables empty;
  return empty;
}

// ---- reading files -------------------------------------------------------

namespace {

// A whole-file load restarts EINTR but takes no retries and no fault
// injection (the loaders' damage tests stage bytes, not errnos).
constexpr util::io::RetryPolicy kLoadRetry =
    util::io::kDiskRetry.with_retries(0).without_injection();

/// The one place the read side opens a trace file by path.
int open_trace_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    throw util::TraceIoError(
        "cannot open trace file: " + path + ": " + std::strerror(err), err);
  }
  return fd;
}

[[noreturn]] void throw_io(const char* what, const std::string& path, int fd) {
  const int err = errno;
  ::close(fd);
  throw util::TraceIoError(std::string(what) + " trace file: " + path + ": " +
                               std::strerror(err),
                           err);
}

std::size_t file_size(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_io("cannot stat", path, fd);
  return static_cast<std::size_t>(st.st_size);
}

}  // namespace

std::vector<unsigned char> read_trace_bytes(const std::string& path) {
  const int fd = open_trace_file(path);
  std::vector<unsigned char> bytes(file_size(fd, path));
  std::size_t got = 0;
  for (;;) {  // to end of file, which may lie past the size fstat saw
    if (got == bytes.size()) bytes.resize(got + 64 * 1024);
    const util::io::IoResult r =
        util::io::read_all(fd, bytes.data() + got, bytes.size() - got,
                           util::io::kFilePosition, kLoadRetry);
    got += r.done;
    if (r.status == util::io::IoStatus::Failed) {
      throw_io("cannot read", path, fd);
    }
    if (r.status == util::io::IoStatus::Short) break;
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

std::vector<unsigned char> read_trace_bytes(std::istream& in) {
  std::vector<unsigned char> bytes;
  char block[64 * 1024];
  while (in.read(block, sizeof block) || in.gcount() > 0) {
    bytes.insert(bytes.end(), block, block + in.gcount());
  }
  return bytes;
}

// ---- MappedTrace ---------------------------------------------------------

MappedTrace::MappedTrace(const std::string& path) {
#if CLA_HAVE_MMAP
  const int fd = open_trace_file(path);
  size_ = file_size(fd, path);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) throw_io("cannot mmap", path, fd);
    data_ = static_cast<const unsigned char*>(map);
    mapped_ = true;
  }
  ::close(fd);
#else
  owned_ = read_trace_bytes(path);
  data_ = owned_.data();
  size_ = owned_.size();
#endif
  try {
    parse();
  } catch (...) {
#if CLA_HAVE_MMAP
    // A throwing constructor skips the destructor.
    if (mapped_) ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
    throw;
  }
}

MappedTrace::MappedTrace(std::vector<unsigned char> bytes)
    : owned_(std::move(bytes)) {
  data_ = owned_.data();
  size_ = owned_.size();
  parse();
}

MappedTrace::~MappedTrace() {
#if CLA_HAVE_MMAP
  if (mapped_) ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
}

void MappedTrace::parse() {
  CLA_CHECK(size_ >= 8 && std::memcmp(data_, kTraceMagic, 4) == 0,
            "not a CLA trace (bad magic)");
  std::memcpy(&version_, data_ + 4, 4);
  CLA_CHECK(is_supported_trace_version(version_),
            "unsupported trace version " + std::to_string(version_));
  if (version_ == kTraceVersionLegacy) {
    load_v1();
  } else {
    load_chunked();
  }
  view_.tables_ = &tables_;
}

void MappedTrace::load_v1() {
  V1Layout layout = parse_v1(data_, size_, tables_);
  CLA_CHECK(layout.error == nullptr, layout.error);
  std::vector<std::vector<EventsChunk>> segments;
  for (const EventsChunk& block : layout.blocks) {
    if (block.tid >= segments.size()) segments.resize(block.tid + 1);
    segments[block.tid].push_back(block);
  }
  build_views(segments);
}

namespace {

/// Strict-load error per util::io::FrameCheck verdict.
constexpr const char* kFrameErrors[] = {
    "", "corrupt trace: bad chunk magic",
    "corrupt trace: implausible chunk size",
    "trace stream truncated inside chunk", "corrupt trace: chunk CRC mismatch"};

/// Strict-load error for a CRC-valid chunk of `kind` that fails to decode.
const char* malformed_chunk_message(std::uint32_t kind) {
  switch (static_cast<ChunkKind>(kind)) {
    case ChunkKind::Events: return "corrupt trace: events chunk size mismatch";
    case ChunkKind::EventsV3:
      return "corrupt trace: bad v3 events chunk header";
    case ChunkKind::RuntimeWarnings:
      return "corrupt trace: runtime-warnings chunk size mismatch";
    case ChunkKind::CallStacks:
      return "corrupt trace: implausible call-stack depth";
    default: return "trace stream truncated";
  }
}

}  // namespace

void MappedTrace::load_chunked() {
  std::vector<std::vector<EventsChunk>> segments;
  bool clean_close = false;
  std::size_t pos = 8;
  while (pos < size_) {
    util::io::FrameHeader header;
    const util::io::FrameCheck check =
        util::io::check_frame(data_, size_, pos, kChunkMagic, header);
    CLA_CHECK(check == util::io::FrameCheck::Ok,
              kFrameErrors[static_cast<int>(check)]);
    const unsigned char* payload = data_ + pos + util::io::kFrameHeaderBytes;
    pos += util::io::kFrameHeaderBytes + header.payload_bytes;

    DecodedChunk chunk;
    CLA_CHECK(decode_chunk(header.kind, payload, header.payload_bytes,
                           tables_, chunk),
              malformed_chunk_message(header.kind));
    clean_close |= chunk.clean_close;
    if (chunk.data != nullptr) {
      if (chunk.tid >= segments.size()) segments.resize(chunk.tid + 1);
      segments[chunk.tid].push_back(chunk);
    }
  }
  CLA_CHECK(clean_close,
            "trace has no clean-close marker (crashed or truncated "
            "recording; use --salvage)");
  build_views(segments);
}

void MappedTrace::build_views(
    const std::vector<std::vector<EventsChunk>>& segments) {
  const std::size_t nthreads = segments.size();
  soa_.resize(nthreads);
  compacted_.resize(nthreads);
  view_.threads_.reserve(nthreads);

  for (ThreadId tid = 0; tid < nthreads; ++tid) {
    const auto& segs = segments[tid];
    std::size_t total = 0;
    bool any_v3 = false;
    bool any_raw = false;
    for (const EventsChunk& s : segs) {
      total += s.count;
      (s.v3 ? any_v3 : any_raw) = true;
    }

    if (total == 0) {
      view_.threads_.emplace_back(nullptr, 0, tid);
    } else if (!any_v3 && segs.size() == 1) {
      // The common v1/v2 shape: one contiguous run, viewed in place.
      view_.threads_.emplace_back(segs.front().data, total, tid);
    } else if (any_v3 && !any_raw) {
      // Pure v3: decode each chunk once, straight into the final SoA
      // columns (chunk deltas are self-contained, so chunks decode
      // independently at any offset).
      SoaColumns& soa = soa_[tid];
      soa.ts.resize(total);
      soa.object.resize(total);
      soa.arg.resize(total);
      soa.type.resize(total);
      std::size_t off = 0;
      for (const EventsChunk& s : segs) {
        CLA_CHECK(decode_events_v3(s.data, s.bytes, soa.ts.data() + off,
                                   soa.object.data() + off,
                                   soa.arg.data() + off, soa.type.data() + off),
                  "corrupt trace: bad v3 events chunk encoding");
        off += s.count;
      }
      view_.threads_.emplace_back(soa.ts.data(), soa.object.data(),
                                  soa.arg.data(), soa.type.data(), total, tid);
    } else {
      // Several raw runs, or raw chunks mixed into a v3 file (crash-spill
      // fallback): compact into one owned AoS buffer, in file order.
      util::GrowArray<Event>& events = compacted_[tid];
      events.reserve(total);
      for (const EventsChunk& s : segs) {
        CLA_CHECK(append_events(s, events),
                  "corrupt trace: bad v3 events chunk encoding");
      }
      view_.threads_.emplace_back(events.data(), total, tid);
    }
  }
}

}  // namespace cla::trace

#include "cla/trace/salvage.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "cla/trace/trace_io.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/crc32.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {

namespace {

/// Bounds-checked cursor over the fully buffered file. Salvage reads the
/// whole stream up front: recovery is a cold path, and resynchronising on
/// chunk magics needs random access.
struct BufReader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  std::size_t remaining() const { return size - pos; }

  template <typename T>
  bool try_get(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&out, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool try_get_bytes(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data + pos, n);
    pos += n;
    return true;
  }

  bool try_get_string(std::string& out) {
    std::uint32_t len = 0;
    if (!try_get(len) || len > (1u << 20) || remaining() < len) return false;
    out.assign(data + pos, len);
    pos += len;
    return true;
  }
};

// ---- v1 salvage ----------------------------------------------------------

void salvage_v1(BufReader& in, Trace& trace, SalvageReport& report) {
  auto torn = [&] {
    report.torn_tail = true;
    report.bytes_dropped += in.remaining();
    in.pos = in.size;
  };

  std::uint32_t thread_count = 0;
  if (!in.try_get(thread_count) || thread_count > (1u << 20)) return torn();

  std::uint32_t object_names = 0;
  if (!in.try_get(object_names)) return torn();
  for (std::uint32_t i = 0; i < object_names; ++i) {
    ObjectId object;
    std::string name;
    if (!in.try_get(object) || !in.try_get_string(name)) return torn();
    trace.set_object_name(object, std::move(name));
  }
  std::uint32_t thread_names = 0;
  if (!in.try_get(thread_names)) return torn();
  for (std::uint32_t i = 0; i < thread_names; ++i) {
    ThreadId tid;
    std::string name;
    if (!in.try_get(tid) || !in.try_get_string(name)) return torn();
    trace.set_thread_name(tid, std::move(name));
  }

  for (std::uint32_t block = 0; block < thread_count; ++block) {
    ThreadId tid;
    std::uint64_t declared = 0;
    if (!in.try_get(tid) || tid > (1u << 20) || !in.try_get(declared)) {
      return torn();
    }
    // Keep every whole event that is actually present; a block cut short
    // mid-event drops only the final partial record.
    const std::uint64_t available = in.remaining() / sizeof(Event);
    const std::uint64_t take = std::min(declared, available);
    std::vector<Event> events(static_cast<std::size_t>(take));
    in.try_get_bytes(events.data(), static_cast<std::size_t>(take) * sizeof(Event));
    report.events_recovered += take;
    trace.append_thread_events(tid, events);
    if (take < declared) return torn();
  }
  report.clean_close = true;  // a complete v1 file is a clean-exit flush
}

// ---- v2 salvage ----------------------------------------------------------

/// Index of the next chunk magic at or after `from`; npos if none.
std::size_t find_chunk_magic(const BufReader& in, std::size_t from) {
  if (from >= in.size) return std::string::npos;
  std::string_view hay(in.data, in.size);
  return hay.find(std::string_view(kChunkMagic, 4), from);
}

void salvage_v2(BufReader& in, Trace& trace, SalvageReport& report) {
  while (in.pos < in.size) {
    // Locate a plausible chunk header; resync past corruption.
    if (in.remaining() < 16 ||
        std::memcmp(in.data + in.pos, kChunkMagic, 4) != 0) {
      const std::size_t next = find_chunk_magic(in, in.pos + 1);
      ++report.chunks_dropped;
      if (next == std::string::npos) {
        report.torn_tail = true;
        report.bytes_dropped += in.remaining();
        return;
      }
      report.bytes_dropped += next - in.pos;
      in.pos = next;
      continue;
    }

    const std::size_t chunk_start = in.pos;
    std::uint32_t kind = 0, payload_bytes = 0, crc = 0;
    in.pos += 4;  // magic
    in.try_get(kind);
    in.try_get(payload_bytes);
    in.try_get(crc);
    if (payload_bytes > kMaxChunkPayload) {
      // Corrupt size field: this "header" is garbage; resync after it.
      in.pos = chunk_start + 4;
      ++report.chunks_dropped;
      const std::size_t next = find_chunk_magic(in, in.pos);
      report.bytes_dropped += (next == std::string::npos ? in.size : next) - chunk_start;
      if (next == std::string::npos) {
        report.torn_tail = true;
        in.pos = in.size;
        return;
      }
      in.pos = next;
      continue;
    }
    if (in.remaining() < payload_bytes) {
      // Torn tail: the final chunk was cut mid-write.
      report.torn_tail = true;
      ++report.chunks_dropped;
      report.bytes_dropped += in.size - chunk_start;
      in.pos = in.size;
      return;
    }
    const char* payload = in.data + in.pos;
    if (util::crc32(payload, payload_bytes) != crc) {
      // Checksum failure: drop this chunk and resync just past its magic
      // (its size field is untrustworthy).
      ++report.chunks_dropped;
      const std::size_t next = find_chunk_magic(in, chunk_start + 4);
      report.bytes_dropped += (next == std::string::npos ? in.size : next) - chunk_start;
      if (next == std::string::npos) {
        report.torn_tail = true;
        in.pos = in.size;
        return;
      }
      in.pos = next;
      continue;
    }
    in.pos += payload_bytes;

    BufReader body{payload, payload_bytes};
    bool intact = true;
    switch (static_cast<ChunkKind>(kind)) {
      case ChunkKind::ObjectNames: {
        std::uint32_t count = 0;
        intact = body.try_get(count);
        for (std::uint32_t i = 0; intact && i < count; ++i) {
          ObjectId object;
          std::string name;
          intact = body.try_get(object) && body.try_get_string(name);
          if (intact) trace.set_object_name(object, std::move(name));
        }
        break;
      }
      case ChunkKind::ThreadNames: {
        std::uint32_t count = 0;
        intact = body.try_get(count);
        for (std::uint32_t i = 0; intact && i < count; ++i) {
          ThreadId tid;
          std::string name;
          intact = body.try_get(tid) && body.try_get_string(name);
          if (intact) trace.set_thread_name(tid, std::move(name));
        }
        break;
      }
      case ChunkKind::Events: {
        ThreadId tid = 0;
        std::uint32_t count = 0;
        intact = body.try_get(tid) && body.try_get(count) && tid <= (1u << 20) &&
                 body.remaining() == count * sizeof(Event);
        if (intact) {
          std::vector<Event> events(count);
          body.try_get_bytes(events.data(), count * sizeof(Event));
          trace.append_thread_events(tid, events);
          report.events_recovered += count;
        }
        break;
      }
      case ChunkKind::EventsV3: {
        ThreadId tid = 0;
        std::uint32_t count = 0;
        intact = peek_events_v3(payload, payload_bytes, tid, count);
        if (intact) {
          // The CRC already passed, so a decode failure means a writer
          // bug, not a torn file — but salvage stays fail-soft either way
          // and just drops the chunk.
          std::vector<Event> events(count);
          intact = decode_events_v3(payload, payload_bytes, events.data());
          if (intact) {
            trace.append_thread_events(tid, events);
            report.events_recovered += count;
          }
        }
        break;
      }
      case ChunkKind::Meta: {
        std::uint32_t flags = 0;
        intact = body.try_get(report.runtime_dropped_events) &&
                 body.try_get(flags);
        if (intact && (flags & kMetaFlagCleanClose)) report.clean_close = true;
        break;
      }
      case ChunkKind::CallStacks: {
        std::uint32_t count = 0;
        intact = body.try_get(count);
        for (std::uint32_t i = 0; intact && i < count; ++i) {
          std::uint64_t id = 0;
          std::uint32_t depth = 0;
          intact = body.try_get(id) && body.try_get(depth) &&
                   depth <= kMaxCallStackDepth;
          if (!intact) break;
          std::vector<std::uint64_t> pcs(depth);
          for (std::uint32_t f = 0; intact && f < depth; ++f) {
            intact = body.try_get(pcs[f]);
          }
          if (intact) trace.set_call_stack(id, std::move(pcs));
        }
        break;
      }
      case ChunkKind::FrameSymbols: {
        std::uint32_t count = 0;
        intact = body.try_get(count);
        for (std::uint32_t i = 0; intact && i < count; ++i) {
          std::uint64_t pc = 0;
          std::string name;
          intact = body.try_get(pc) && body.try_get_string(name);
          if (intact) trace.set_frame_symbol(pc, std::move(name));
        }
        break;
      }
      case ChunkKind::RuntimeWarnings: {
        std::uint32_t count = 0;
        intact = body.try_get(count) && body.remaining() == count * 12ull;
        for (std::uint32_t i = 0; intact && i < count; ++i) {
          RuntimeWarning w;
          intact = body.try_get(w.code) && body.try_get(w.value);
          if (intact && w.code != 0) trace.set_runtime_warning(w.code, w.value);
        }
        break;
      }
      default:
        break;  // unknown kind, CRC was valid: skip silently
    }
    if (intact) {
      ++report.chunks_recovered;
    } else {
      ++report.chunks_dropped;
      report.bytes_dropped += 16 + payload_bytes;
    }
  }
}

}  // namespace

// ---- repair --------------------------------------------------------------

void repair_trace(Trace& trace, SalvageReport& report) {
  // The protocol replay lives in the shared repair engine (validate.cpp)
  // so --strictness=repair and salvage fix traces identically; only the
  // bookkeeping is mapped back onto the salvage report here.
  const RepairSummary summary =
      repair_trace_semantics(trace, util::Strictness::Repair, nullptr);
  report.synthesized_events += summary.synthesized_events;
  report.events_discarded += summary.events_discarded;
  report.threads_repaired += summary.threads_repaired;
}

// ---- entry points --------------------------------------------------------

SalvageResult salvage_trace(std::istream& in) {
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  BufReader reader{bytes.data(), bytes.size()};

  char magic[4];
  std::uint32_t version = 0;
  CLA_CHECK(reader.try_get_bytes(magic, 4) &&
                std::memcmp(magic, kTraceMagic, 4) == 0,
            "not a CLA trace (bad magic)");
  CLA_CHECK(reader.try_get(version) && is_supported_trace_version(version),
            "unsupported trace version " + std::to_string(version));

  SalvageResult out;
  if (version == kTraceVersionLegacy) {
    salvage_v1(reader, out.trace, out.report);
  } else {
    salvage_v2(reader, out.trace, out.report);
  }
  CLA_CHECK(out.report.events_recovered > 0,
            "nothing to salvage: no intact events in trace");
  out.trace.set_dropped_events(out.report.runtime_dropped_events);
  repair_trace(out.trace, out.report);
  return out;
}

SalvageResult salvage_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    const int err = errno;
    throw util::TraceIoError(
        "cannot open trace file: " + path + ": " + std::strerror(err), err);
  }
  return salvage_trace(in);
}

std::string SalvageReport::to_string() const {
  std::ostringstream out;
  out << "salvage: " << events_recovered << " events recovered";
  if (chunks_recovered > 0) out << " (" << chunks_recovered << " chunks)";
  out << '\n';
  if (bytes_dropped > 0 || chunks_dropped > 0) {
    out << "salvage: dropped " << bytes_dropped << " torn/corrupt bytes ("
        << chunks_dropped << " chunks)\n";
  }
  if (events_discarded > 0) {
    out << "salvage: discarded " << events_discarded
        << " protocol-inconsistent events\n";
  }
  if (synthesized_events > 0 || threads_repaired > 0) {
    out << "salvage: synthesized " << synthesized_events << " events to repair "
        << threads_repaired << " threads\n";
  }
  if (runtime_dropped_events > 0) {
    out << "salvage: recorder dropped " << runtime_dropped_events
        << " events at record time\n";
  }
  out << "salvage: recording "
      << (clean_close ? "closed cleanly"
                      : (torn_tail ? "torn mid-write" : "ended without clean close"))
      << '\n';
  return out.str();
}

}  // namespace cla::trace

#include "cla/trace/salvage.hpp"

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/trace/validate.hpp"
#include "cla/util/error.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::trace {

namespace {

// ---- v1 salvage ----------------------------------------------------------

void salvage_v1(const unsigned char* data, std::size_t size, Trace& trace,
                SalvageReport& report) {
  const V1Layout layout = parse_v1(data, size, trace.tables());
  for (const EventsChunk& block : layout.blocks) {
    append_events(block, trace.thread_stream(block.tid));  // raw: never fails
    report.events_recovered += block.count;
  }
  if (layout.error != nullptr) {
    report.torn_tail = true;
    report.bytes_dropped += size - layout.end;
  } else {
    report.clean_close = true;  // a complete v1 file is a clean-exit flush
  }
}

// ---- v2/v3 salvage -------------------------------------------------------

void salvage_chunked(const unsigned char* data, std::size_t size, Trace& trace,
                     SalvageReport& report) {
  std::size_t pos = 8;
  while (pos < size) {
    util::io::FrameHeader header;
    const util::io::FrameCheck check =
        util::io::check_frame(data, size, pos, kChunkMagic, header);
    if (check == util::io::FrameCheck::Truncated) {
      // Torn tail: the final chunk was cut mid-write.
      report.torn_tail = true;
      ++report.chunks_dropped;
      report.bytes_dropped += size - pos;
      return;
    }
    if (check != util::io::FrameCheck::Ok) {
      // Drop everything up to the next chunk magic (the rest of the file
      // if there is none) as one lost chunk. A bad size or CRC makes the
      // whole header untrustworthy, so the search starts past its magic.
      ++report.chunks_dropped;
      const std::size_t from =
          pos + (check == util::io::FrameCheck::NoHeader ? 1 : 4);
      const std::size_t next =
          from < size
              ? util::io::find_magic(data + from, size - from, kChunkMagic)
              : std::string::npos;
      const std::size_t end = next == std::string::npos ? size : from + next;
      report.torn_tail |= next == std::string::npos;
      report.bytes_dropped += end - pos;
      pos = end;
      continue;
    }
    const std::size_t payload_at = pos + util::io::kFrameHeaderBytes;
    const unsigned char* payload = data + payload_at;
    pos = payload_at + header.payload_bytes;

    // A CRC-valid chunk that fails to decode (a writer bug, not a torn
    // file) applies nothing and is counted as dropped. An event run
    // decodes straight into its stream; a thread's first run goes through
    // `fresh`, so a run that fails leaves no empty stream behind.
    DecodedChunk chunk;
    bool intact = decode_chunk(header.kind, payload, header.payload_bytes,
                               trace.tables(), chunk);
    if (intact && chunk.data != nullptr) {
      util::GrowArray<Event> fresh;
      const bool known = chunk.tid < trace.thread_count();
      intact =
          append_events(chunk, known ? trace.thread_stream(chunk.tid) : fresh);
      if (intact && !known) trace.thread_stream(chunk.tid) = std::move(fresh);
    }
    if (!intact) {
      ++report.chunks_dropped;
      report.bytes_dropped +=
          util::io::kFrameHeaderBytes + header.payload_bytes;
      continue;
    }
    ++report.chunks_recovered;
    report.clean_close |= chunk.clean_close;
    report.events_recovered += chunk.count;
  }
}

SalvageResult salvage_bytes(const std::vector<unsigned char>& bytes) {
  std::uint32_t version = 0;
  CLA_CHECK(bytes.size() >= 4 && std::memcmp(bytes.data(), kTraceMagic, 4) == 0,
            "not a CLA trace (bad magic)");
  if (bytes.size() >= 8) std::memcpy(&version, bytes.data() + 4, 4);
  CLA_CHECK(bytes.size() >= 8 && is_supported_trace_version(version),
            "unsupported trace version " + std::to_string(version));

  SalvageResult out;
  if (version == kTraceVersionLegacy) {
    salvage_v1(bytes.data(), bytes.size(), out.trace, out.report);
  } else {
    salvage_chunked(bytes.data(), bytes.size(), out.trace, out.report);
  }
  CLA_CHECK(out.report.events_recovered > 0,
            "nothing to salvage: no intact events in trace");
  out.report.runtime_dropped_events = out.trace.dropped_events();
  out.trace = repair_trace(TraceView(out.trace), out.report);
  return out;
}

}  // namespace

// ---- repair --------------------------------------------------------------

Trace repair_trace(const TraceView& view, SalvageReport& report) {
  // The protocol replay lives in the shared repair engine (validate.cpp)
  // so --strictness=repair and salvage fix traces identically; only the
  // bookkeeping is mapped back onto the salvage report here.
  RepairResult repaired =
      repair_trace_semantics(view, util::Strictness::Repair, nullptr);
  report.synthesized_events += repaired.summary.synthesized_events;
  report.events_discarded += repaired.summary.events_discarded;
  report.threads_repaired += repaired.summary.threads_repaired;
  return std::move(repaired.trace);
}

// ---- entry points --------------------------------------------------------

SalvageResult salvage_trace(std::istream& in) {
  return salvage_bytes(read_trace_bytes(in));
}

SalvageResult salvage_trace_file(const std::string& path) {
  return salvage_bytes(read_trace_bytes(path));
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

#include "cla/agg/record.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "cla/analysis/stats.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/framed_io.hpp"

namespace cla::agg {

namespace {

// Hard caps so a corrupt length field is treated as corruption, never as
// a gigantic allocation (same discipline as the trace chunk reader).
constexpr std::uint32_t kMaxString = 1u << 16;
constexpr std::size_t kMaxLocks = 1u << 20;

}  // namespace

std::string encode_run_record(const RunRecord& record) {
  using util::io::put_str;
  using util::io::put_u32;
  using util::io::put_u64;
  std::string out;
  put_u32(out, record.schema);
  put_str(out, record.run_id);
  put_str(out, record.host);
  put_str(out, record.label);
  put_u64(out, record.seq);
  put_u64(out, record.wall_ns);
  put_u32(out, record.worker_threads);
  put_u64(out, record.events);
  put_u64(out, record.dropped_events);
  put_u64(out, record.skipped_bytes);
  put_u64(out, record.windows_shed);
  put_u64(out, record.rotations);
  put_u32(out, static_cast<std::uint32_t>(record.locks.size()));
  for (const LockAgg& lock : record.locks) {
    put_str(out, lock.name);
    put_u64(out, lock.cp_hold_ns);
    put_u64(out, lock.cp_invocations);
    put_u64(out, lock.cp_contended);
    put_u64(out, lock.invocations);
    put_u64(out, lock.contended);
    put_u64(out, lock.wait_ns);
    put_u64(out, lock.hold_ns);
  }
  return out;
}

bool decode_run_record(const void* payload, std::size_t bytes,
                       RunRecord& out) {
  util::io::FieldReader r{static_cast<const unsigned char*>(payload), bytes};
  const auto str = [&r](std::string& s) { return r.str(&s, kMaxString); };
  out = RunRecord{};
  std::uint32_t lock_count = 0;
  if (!r.u32(out.schema) || !str(out.run_id) || !str(out.host) ||
      !str(out.label) || !r.u64(out.seq) || !r.u64(out.wall_ns) ||
      !r.u32(out.worker_threads) || !r.u64(out.events) ||
      !r.u64(out.dropped_events) || !r.u64(out.skipped_bytes) ||
      !r.u64(out.windows_shed) || !r.u64(out.rotations) ||
      !r.u32(lock_count) || lock_count > kMaxLocks) {
    return false;
  }
  out.locks.resize(lock_count);
  for (LockAgg& lock : out.locks) {
    if (!str(lock.name) || !r.u64(lock.cp_hold_ns) ||
        !r.u64(lock.cp_invocations) || !r.u64(lock.cp_contended) ||
        !r.u64(lock.invocations) || !r.u64(lock.contended) ||
        !r.u64(lock.wait_ns) || !r.u64(lock.hold_ns)) {
      return false;
    }
  }
  // Trailing bytes are tolerated only for newer same-schema writers that
  // appended fields; a same-or-older schema with trailing garbage is
  // corruption.
  return r.remaining() == 0 || out.schema > kRunRecordSchema;
}

RunRecord make_run_record(const analysis::AnalysisResult& result,
                          const RunMeta& meta) {
  RunRecord record;
  record.run_id = meta.run_id;
  record.host = meta.host;
  record.label = meta.label;
  record.seq = meta.seq;
  record.wall_ns = result.completion_time;
  record.worker_threads = static_cast<std::uint32_t>(result.worker_threads);
  record.events = meta.events;
  record.dropped_events = meta.dropped_events;
  record.skipped_bytes = meta.skipped_bytes;
  record.windows_shed = meta.windows_shed;
  record.rotations = meta.rotations;
  record.locks.reserve(result.locks.size());
  for (const analysis::LockStats& ls : result.locks) {
    LockAgg lock;
    lock.name = ls.name;
    lock.cp_hold_ns = ls.cp_hold_time;
    lock.cp_invocations = ls.cp_invocations;
    lock.cp_contended = ls.cp_contended;
    lock.invocations = ls.invocations;
    lock.contended = ls.contended;
    lock.wait_ns = ls.total_wait;
    lock.hold_ns = ls.total_hold;
    record.locks.push_back(std::move(lock));
  }
  return record;
}

// ---- minimal JSON parser (for schema-2 report ingest) --------------------
//
// Full JSON grammar, tiny DOM. Only what ingest needs is extracted, but
// the parser itself is strict: malformed documents are rejected with a
// position, never silently half-read.

namespace {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double num_or(const std::string& key, double fallback) const {
    const JsonValue* v = get(key);
    return (v != nullptr && v->kind == Kind::Number) ? v->number : fallback;
  }
};

class JsonParser {
 public:
  JsonParser(const char* text, std::size_t size) : p_(text), end_(text + size) {}

  bool parse(JsonValue& out, std::string& error) {
    if (!value(out, error)) return false;
    skip_ws();
    if (p_ != end_) {
      error = "trailing characters after JSON document";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  bool fail(std::string& error, const std::string& what) {
    error = what + " at byte " + std::to_string(p_ - start_);
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (static_cast<std::size_t>(end_ - p_) < len) return false;
    if (std::memcmp(p_, word, len) != 0) return false;
    p_ += len;
    return true;
  }

  bool value(JsonValue& out, std::string& error) {
    if (++depth_ > 64) return fail(error, "JSON nested too deeply");
    skip_ws();
    if (p_ == end_) return fail(error, "unexpected end of JSON");
    bool ok;
    switch (*p_) {
      case '{':
        ok = parse_object(out, error);
        break;
      case '[':
        ok = parse_array(out, error);
        break;
      case '"':
        out.kind = JsonValue::Kind::String;
        ok = parse_string(out.string, error);
        break;
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        ok = literal("true", 4) || fail(error, "bad literal");
        break;
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        ok = literal("false", 5) || fail(error, "bad literal");
        break;
      case 'n':
        out.kind = JsonValue::Kind::Null;
        ok = literal("null", 4) || fail(error, "bad literal");
        break;
      default:
        out.kind = JsonValue::Kind::Number;
        ok = parse_number(out.number, error);
    }
    --depth_;
    return ok;
  }

  bool parse_number(double& out, std::string& error) {
    char* num_end = nullptr;
    out = std::strtod(p_, &num_end);
    if (num_end == p_ || num_end > end_) return fail(error, "bad number");
    p_ = num_end;
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    ++p_;  // opening quote
    out.clear();
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        if (++p_ == end_) break;
        switch (*p_) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end_ - p_ < 5) return fail(error, "bad \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p_[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= c - '0';
              else if (c >= 'a' && c <= 'f') code |= c - 'a' + 10;
              else if (c >= 'A' && c <= 'F') code |= c - 'A' + 10;
              else return fail(error, "bad \\u escape");
            }
            // Our own writers only escape control characters; encode the
            // code point as UTF-8 (surrogate pairs land as two units,
            // acceptable for diagnostics-grade strings).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            p_ += 4;
            break;
          }
          default:
            return fail(error, "bad escape");
        }
        ++p_;
      } else {
        out += *p_++;
      }
    }
    if (p_ == end_) return fail(error, "unterminated string");
    ++p_;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Array;
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(element, error)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (p_ == end_) return fail(error, "unterminated array");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Object;
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      if (p_ == end_ || *p_ != '"') return fail(error, "expected object key");
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return fail(error, "expected ':'");
      ++p_;
      JsonValue element;
      if (!value(element, error)) return false;
      out.object.emplace(std::move(key), std::move(element));
      skip_ws();
      if (p_ == end_) return fail(error, "unterminated object");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  const char* p_;
  const char* end_;
  const char* start_ = p_;
  int depth_ = 0;
};

std::uint64_t round_u64(double v) {
  if (!(v > 0)) return 0;
  return static_cast<std::uint64_t>(std::llround(v));
}

}  // namespace

bool parse_report_json(const std::string& text, const RunMeta& meta,
                       RunRecord& out, std::string& error) {
  JsonValue doc;
  JsonParser parser(text.data(), text.size());
  if (!parser.parse(doc, error)) return false;
  if (doc.kind != JsonValue::Kind::Object) {
    error = "top-level JSON value is not an object";
    return false;
  }
  const double schema = doc.num_or("schema", 0);
  if (schema < 2 || schema >= 3) {
    error = "unsupported report schema " + std::to_string(schema) +
            " (expected 2.x)";
    return false;
  }

  out = RunRecord{};
  out.run_id = meta.run_id;
  out.host = meta.host;
  out.label = meta.label;
  out.seq = meta.seq;
  out.events = meta.events;
  out.dropped_events = meta.dropped_events;
  out.wall_ns = round_u64(doc.num_or("completion_time_ns", 0));
  out.worker_threads =
      static_cast<std::uint32_t>(doc.num_or("worker_threads", 0));

  const JsonValue* locks = doc.get("locks");
  if (locks == nullptr || locks->kind != JsonValue::Kind::Array) {
    error = "report JSON has no \"locks\" array";
    return false;
  }
  const double wall = static_cast<double>(out.wall_ns);
  const double workers = out.worker_threads;
  for (const JsonValue& entry : locks->array) {
    if (entry.kind != JsonValue::Kind::Object) {
      error = "\"locks\" entry is not an object";
      return false;
    }
    const JsonValue* name = entry.get("name");
    if (name == nullptr || name->kind != JsonValue::Kind::String) {
      error = "\"locks\" entry has no string \"name\"";
      return false;
    }
    LockAgg lock;
    lock.name = name->string;
    // The report publishes exact integers for the CP-side counts and
    // fractions/averages for the rest; reconstruct integer totals from
    // them (rounded — ingest of a foreign report is approximate by
    // design, and dedup never mixes reconstructed and native records).
    lock.cp_invocations = round_u64(entry.num_or("cp_invocations", 0));
    lock.cp_hold_ns = round_u64(entry.num_or("cp_time_fraction", 0) * wall);
    lock.cp_contended = round_u64(entry.num_or("cp_contention_prob", 0) *
                                  static_cast<double>(lock.cp_invocations));
    const double avg_invocations = entry.num_or("avg_invocations", 0);
    lock.invocations = round_u64(avg_invocations * workers);
    lock.contended = round_u64(entry.num_or("avg_contention_prob", 0) *
                               static_cast<double>(lock.invocations));
    lock.wait_ns =
        round_u64(entry.num_or("wait_time_fraction", 0) * wall * workers);
    lock.hold_ns =
        round_u64(entry.num_or("avg_hold_fraction", 0) * wall * workers);
    out.locks.push_back(std::move(lock));
  }
  return true;
}

std::string run_record_json(const RunRecord& record) {
  std::ostringstream out;
  out << "{\"schema\":" << record.schema << ",\"run_id\":";
  out << util::json_quoted(record.run_id);
  out << ",\"host\":" << util::json_quoted(record.host);
  out << ",\"label\":" << util::json_quoted(record.label);
  out << ",\"seq\":" << record.seq << ",\"wall_ns\":" << record.wall_ns
      << ",\"worker_threads\":" << record.worker_threads
      << ",\"events\":" << record.events
      << ",\"dropped_events\":" << record.dropped_events
      << ",\"skipped_bytes\":" << record.skipped_bytes
      << ",\"windows_shed\":" << record.windows_shed
      << ",\"rotations\":" << record.rotations << ",\"locks\":[";
  for (std::size_t i = 0; i < record.locks.size(); ++i) {
    const LockAgg& lock = record.locks[i];
    if (i > 0) out << ',';
    out << "{\"name\":" << util::json_quoted(lock.name);
    out << ",\"cp_hold_ns\":" << lock.cp_hold_ns
        << ",\"cp_invocations\":" << lock.cp_invocations
        << ",\"cp_contended\":" << lock.cp_contended
        << ",\"invocations\":" << lock.invocations
        << ",\"contended\":" << lock.contended
        << ",\"wait_ns\":" << lock.wait_ns << ",\"hold_ns\":" << lock.hold_ns
        << '}';
  }
  out << "]}";
  return out.str();
}

std::vector<RunRecord> merge_duplicates(std::vector<RunRecord> records) {
  // "Largest duplicate wins": more events, then more locks, then the
  // lexicographically largest encoded payload. Total order on content ->
  // commutative and associative -> ingest-order independence.
  const auto better = [](const RunRecord& a, const RunRecord& b) {
    if (a.events != b.events) return a.events > b.events;
    if (a.locks.size() != b.locks.size()) return a.locks.size() > b.locks.size();
    return encode_run_record(a) > encode_run_record(b);
  };
  std::map<std::pair<std::string, std::uint64_t>, RunRecord> by_key;
  for (RunRecord& record : records) {
    const auto key = std::make_pair(record.run_id, record.seq);
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      by_key.emplace(key, std::move(record));
    } else if (better(record, it->second)) {
      it->second = std::move(record);
    }
  }
  std::vector<RunRecord> out;
  out.reserve(by_key.size());
  for (auto& [key, record] : by_key) out.push_back(std::move(record));
  return out;
}

std::string local_host() {
  char name[256] = {};
  if (::gethostname(name, sizeof name - 1) != 0 || name[0] == '\0') {
    return "unknown";
  }
  return name;
}

}  // namespace cla::agg

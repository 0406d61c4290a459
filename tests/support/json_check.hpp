// Test-local strict JSON reader (RFC 8259): validates a document and
// collects every string it holds, decoded. Unlike the agg ingest parser
// it rejects raw control characters inside strings, the way Python's
// json.load and browsers' JSON.parse do, so a writer that forgets to
// escape one fails here.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cla::test_support {

class JsonCheck {
 public:
  /// True when `text` is exactly one well-formed JSON value. On failure
  /// `error` names the offset.
  bool parse(std::string_view text) {
    s_ = text;
    i_ = 0;
    strings.clear();
    error.clear();
    if (!value()) return false;
    ws();
    return i_ == s_.size() || fail("trailing characters");
  }

  std::vector<std::string> strings;  ///< every decoded string, keys included
  std::string error;

 private:
  bool fail(const char* what) {
    error = std::string(what) + " at offset " + std::to_string(i_);
    return false;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return fail("bad literal");
    i_ += word.size();
    return true;
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return fail("unexpected end");
    switch (s_[i_]) {
      case '{': return container('}', true);
      case '[': return container(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool container(char close, bool object) {
    ++i_;
    ws();
    if (i_ < s_.size() && s_[i_] == close) return ++i_, true;
    for (;;) {
      if (object) {
        ws();
        if (i_ >= s_.size() || s_[i_] != '"' || !string()) {
          return fail("bad key");
        }
        ws();
        if (i_ >= s_.size() || s_[i_++] != ':') return fail("missing ':'");
      }
      if (!value()) return false;
      ws();
      if (i_ >= s_.size()) return fail("unterminated container");
      const char c = s_[i_++];
      if (c == close) return true;
      if (c != ',') return fail("missing ','");
    }
  }
  bool string() {
    ++i_;
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (i_ >= s_.size()) break;
      const char e = s_[i_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (s_.size() - i_ < 4) return fail("bad \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return fail("bad \\u escape");
          }
          if (code >= 0x80) return fail("non-ASCII \\u escape (unused here)");
          out += static_cast<char>(code);
          break;
        }
        default: return fail("bad escape");
      }
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;
    strings.push_back(std::move(out));
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    const auto digits = [&] {
      const std::size_t from = i_;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
      return i_ > from;
    };
    if (!digits()) return fail("bad number");
    if (i_ < s_.size() && s_[i_] == '.' && (++i_, !digits())) {
      return fail("bad fraction");
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return fail("bad exponent");
    }
    return i_ > start;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace cla::test_support

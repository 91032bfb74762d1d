#pragma once
// Minimal strict JSON cursor shared by the runtime's self-describing
// artifacts (chaos-schedule repros, run manifests). Each artifact's writer
// emits a fixed document shape and its reader walks exactly that shape with
// this cursor — whitespace-insensitive, key order-insensitive, no dependency,
// and no half-parse: anything unexpected throws std::invalid_argument tagged
// with the artifact's name and the byte offset of the damage.

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace finch::rt {

struct JsonCursor {
  std::string_view s;
  size_t i = 0;
  std::string_view what = "JSON";  // artifact name used in error messages

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument(std::string(what) + ": " + msg + " at offset " +
                                std::to_string(i));
  }
  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool peek(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }
  bool eat(char c) {
    if (!peek(c)) return false;
    ++i;
    return true;
  }
  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') fail("escapes are not used in this document");
      out.push_back(s[i++]);
    }
    expect('"');
    return out;
  }
  int64_t parse_int() {
    skip_ws();
    const bool neg = i < s.size() && s[i] == '-';
    if (neg) ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) fail("expected integer");
    uint64_t v = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
      v = v * 10 + static_cast<uint64_t>(s[i++] - '0');
    // Negate in unsigned arithmetic: "-9223372036854775808" is INT64_MIN and
    // out-of-range magnitudes wrap, where a signed negation would overflow.
    return static_cast<int64_t>(neg ? 0 - v : v);
  }
  uint64_t parse_u64() {
    skip_ws();
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) fail("expected integer");
    uint64_t v = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
      v = v * 10 + static_cast<uint64_t>(s[i++] - '0');
    return v;
  }
};

}  // namespace finch::rt

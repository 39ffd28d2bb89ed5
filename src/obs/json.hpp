#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// \file json.hpp
/// The JSON text format of every dump and report: one string escaper,
/// one number formatter, and the reader the offline analyzers parse
/// dumps back with. Writers append their documents in place through
/// JsonWriter, so the format is decided here and nowhere else.

namespace mantle::obs {

/// The longest text JsonWriter::number writes ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxNumberChars = 24;
/// The longest decimal integer text ("-9223372036854775808" and
/// "18446744073709551615" are both 20 bytes).
inline constexpr std::size_t kMaxIntegerChars = 20;

/// The bytes JsonWriter::string writes for each input byte of a string
/// body: 1 for a byte copied as is, 2 for a short escape (`"`, `\`,
/// newline, carriage return, tab), 6 for `\u00XX` (every other byte below
/// 0x20).
inline constexpr std::array<unsigned char, 256> kJsonEscapedSize = [] {
  std::array<unsigned char, 256> size{};
  for (std::size_t c = 0; c < size.size(); ++c) size[c] = c < 0x20 ? 6 : 1;
  for (const char c : {'"', '\\', '\n', '\r', '\t'})
    size[static_cast<unsigned char>(c)] = 2;
  return size;
}();

/// Writes one document in place into a string it owns. Text goes through
/// a small buffer that is appended to the string whenever it fills, so
/// each piece costs a copy into the buffer and the string is extended a
/// few KiB at a time. Its three appenders are the one escaper and the two
/// number formatters of every dump.
class JsonWriter {
 public:
  /// Starts an empty document with `capacity` bytes reserved.
  explicit JsonWriter(std::size_t capacity = 0) { out_.reserve(capacity); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// The finished document.
  std::string take() && {
    flush();
    return std::move(out_);
  }

  /// Literal text, copied as is.
  void raw(std::string_view s) {
    if (s.size() > room()) {
      flush();
      if (s.size() > kBufferSize) {
        out_.append(s);
        return;
      }
    }
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void raw(char c) {
    if (room() == 0) flush();
    *p_++ = c;
  }

  /// `s` as a complete JSON string literal: a quote, the escaped body, a
  /// quote. `"`, `\`, newline, carriage return and tab get their short
  /// escapes; every other byte below 0x20 becomes `\u00XX` (lower-case
  /// hex). All other bytes pass through unchanged, so UTF-8 text stays
  /// UTF-8.
  void string(std::string_view s) {
    // Nearly every string is a short name with nothing to escape.
    if (s.size() <= kShortString && room() >= kShortString + 2 &&
        std::all_of(s.begin(), s.end(), [](char c) {
          return kJsonEscapedSize[static_cast<unsigned char>(c)] == 1;
        })) {
      *p_++ = '"';
      std::memcpy(p_, s.data(), s.size());
      p_ += s.size();
      *p_++ = '"';
    } else {
      escaped_string(s);
    }
  }

  /// The deterministic number text shared by every dump: integral values
  /// below 1e15 in magnitude print without a fraction (printf "%.0f",
  /// through the integer formatter; -0 stays "-0"), everything else as
  /// "%.17g", which round-trips every double. Both are std::to_chars,
  /// whose output the standard defines as printf's for the same
  /// conversion. Non-finite values have no JSON spelling and are pinned:
  /// +inf -> "1e999", -inf -> "-1e999" (both parse back as infinities,
  /// and Prometheus accepts them), NaN -> "0".
  void number(double x) {
    if (std::fabs(x) < 1e15 &&
        x == static_cast<double>(static_cast<std::int64_t>(x)) &&
        !(x == 0.0 && std::signbit(x)))
      integer(static_cast<std::int64_t>(x));
    else
      other_number(x);
  }

  /// The decimal text of an integer.
  template <class Int>
  void integer(Int v) {
    static_assert(std::is_integral_v<Int> && sizeof(Int) <= 8);
    if (room() < kMaxIntegerChars) flush();
    p_ = std::to_chars(p_, p_ + kMaxIntegerChars, v).ptr;
  }

 private:
  static constexpr std::size_t kBufferSize = 4096;
  static constexpr std::size_t kShortString = 32;

  std::size_t room() const {
    return static_cast<std::size_t>(buf_ + kBufferSize - p_);
  }
  void flush() {
    out_.append(buf_, p_);
    p_ = buf_;
  }
  /// string() for any `s`, escapes and all.
  void escaped_string(std::string_view s);
  /// number() for -0, non-finite values and all but the small integral
  /// ones.
  void other_number(double x);

  std::string out_;
  char buf_[kBufferSize];
  char* p_ = buf_;
  // The last value other_number formatted as "%.17g", and its text: a
  // document often repeats it right away (one goal for every shipment of
  // a tick, a shipment's load after its pick's). 0 never takes that path.
  double last_ = 0.0;
  char last_text_[kMaxNumberChars] = {};
  std::size_t last_size_ = 0;
};

/// The exact number of bytes JsonWriter::string(s) writes.
inline std::size_t json_string_size(std::string_view s) {
  std::size_t n = 2;
  for (const char c : s) n += kJsonEscapedSize[static_cast<unsigned char>(c)];
  return n;
}

/// The other side of a writer that sizes its document before writing it.
/// A document writer is a template over its output, run once over a
/// JsonSizer and once over a JsonWriter (see write_reserved), so the bound
/// comes from the same code as the bytes: literal text and strings count
/// exactly, a number kMaxNumberChars and an integer kMaxIntegerChars.
class JsonSizer {
 public:
  void raw(std::string_view s) { size_ += s.size(); }
  void raw(char) { ++size_; }
  void string(std::string_view s) { size_ += json_string_size(s); }
  void number(double) { size_ += kMaxNumberChars; }
  template <class Int>
  void integer(Int) {
    size_ += kMaxIntegerChars;
  }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Upper bound on the bytes `write` (a callable taking `auto&`) writes:
/// runs it over a JsonSizer.
template <class Write>
std::size_t size_bound(const Write& write) {
  JsonSizer sizer;
  write(sizer);
  return sizer.size();
}

/// Runs `write` over a JsonSizer, reserves that bound, then runs it again
/// over a JsonWriter into the reserved string. The document is never
/// copied while it grows, and pages past its end are never touched.
template <class Write>
std::string write_reserved(const Write& write) {
  JsonWriter w(size_bound(write));
  write(w);
  return std::move(w).take();
}

/// `s` as a complete JSON string literal, as JsonWriter::string writes it.
std::string json_string(const std::string& s);

/// JsonWriter::number's text as a string.
std::string format_metric_value(double x);

/// Minimal JSON reader for the offline analyzers (analyze, provenance,
/// what-if), which read dumps from outside the program: objects, arrays,
/// strings with every RFC 8259 escape (`\uXXXX` decodes to UTF-8,
/// surrogate pairs included; a lone surrogate becomes U+FFFD), numbers,
/// true/false/null. Malformed input yields as much as could be parsed
/// rather than an exception, so truncated dumps still analyze. It lives
/// in a `jsonr` sub-namespace to keep it out of the public obs surface.
namespace jsonr {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object } type =
      Type::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse one JSON document (leading value; trailing bytes ignored).
JsonValue parse(const std::string& text);

}  // namespace jsonr

}  // namespace mantle::obs

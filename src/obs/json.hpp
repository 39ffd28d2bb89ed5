#pragma once

#include <string>
#include <utility>
#include <vector>

/// \file json.hpp
/// The JSON text format of every dump and report: one string escaper,
/// one number formatter, and the reader the offline analyzers parse
/// dumps back with. Writers build their documents by hand around these
/// three pieces, so the format is decided here and nowhere else.

namespace mantle::obs {

/// The body of a JSON string literal for `s` (no surrounding quotes).
/// `"`, `\`, newline, carriage return and tab get their short escapes;
/// every other byte below 0x20 becomes `\u00XX` (lower-case hex). All
/// other bytes pass through unchanged, so UTF-8 text stays UTF-8 and
/// ordinary names cost nothing but the copy.
std::string json_escape(const std::string& s);

/// `s` as a complete JSON string literal: `"` + json_escape(s) + `"`.
std::string json_string(const std::string& s);

/// Deterministic number text shared by every dump: integral values
/// below 1e15 in magnitude print without a fraction (printf "%.0f"),
/// everything else as "%.17g", which round-trips every double. Both go
/// through std::to_chars, whose output the standard defines as printf's
/// for the same conversion. Non-finite values have no JSON spelling and
/// are pinned: +inf -> "1e999", -inf -> "-1e999" (both parse back as
/// infinities, and Prometheus accepts them), NaN -> "0".
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

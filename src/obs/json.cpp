#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace mantle::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string json_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

std::string format_metric_value(double x) {
  if (!std::isfinite(x)) return x > 0 ? "1e999" : (x < 0 ? "-1e999" : "0");
  // Longest "%.17g" text is 24 bytes ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r =
      x == std::floor(x) && std::fabs(x) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), x, std::chars_format::fixed,
                          0)
          : std::to_chars(buf, buf + sizeof(buf), x,
                          std::chars_format::general, 17);
  return std::string(buf, r.ptr);
}

namespace jsonr {

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp >= 0xD800 && cp < 0xE000) cp = 0xFFFD;  // unpaired surrogate
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  JsonValue parse() {
    JsonValue v;
    skip_ws();
    parse_value(v);
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::String;
      return parse_string(out.str);
    }
    if (s_.compare(i_, 4, "true") == 0) {
      out.type = JsonValue::Type::Bool;
      out.b = true;
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      out.type = JsonValue::Type::Bool;
      i_ += 5;
      return true;
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::Object;
    if (!eat('{')) return false;
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      if (!eat(':')) return false;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::Array;
    if (!eat('[')) return false;
    if (eat(']')) return true;
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.arr.push_back(std::move(v));
      if (eat(',')) continue;
      return eat(']');
    }
  }

  /// Four hex digits at the cursor; consumes them only on success.
  bool parse_hex4(std::uint32_t& out) {
    if (i_ + 4 > s_.size()) return false;
    const char* first = s_.data() + i_;
    const std::from_chars_result r =
        std::from_chars(first, first + 4, out, 16);
    if (r.ec != std::errc() || r.ptr != first + 4) return false;
    i_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      switch (e) {
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          // A high surrogate combines with an immediately following
          // low one; anything else leaves it unpaired.
          if (cp >= 0xD800 && cp < 0xDC00 && s_.compare(i_, 2, "\\u") == 0) {
            const std::size_t mark = i_;
            i_ += 2;
            std::uint32_t lo = 0;
            if (parse_hex4(lo) && lo >= 0xDC00 && lo < 0xE000)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            else
              i_ = mark;
          }
          append_utf8(out, cp);
          break;
        }
        default: out += e; break;  // `"`, `\` and `/` stand for themselves
      }
    }
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
            s_[i_] == 'E'))
      ++i_;
    if (i_ == start) return false;
    out.type = JsonValue::Type::Number;
    out.num = std::strtod(s_.substr(start, i_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

JsonValue parse(const std::string& text) { return Reader(text).parse(); }

}  // namespace jsonr

}  // namespace mantle::obs

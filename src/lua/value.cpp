#include "lua/value.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mantle::lua {

bool Value::equals(const Value& o) const {
  if (v_.index() != o.v_.index()) return false;
  if (is_nil()) return true;
  if (is_bool()) return boolean() == o.boolean();
  if (is_number()) return number() == o.number();
  if (is_string()) return str() == o.str();
  if (is_table()) return table() == o.table();
  return callable() == o.callable();
}

const char* Value::type_name() const {
  switch (v_.index()) {
    case 0: return "nil";
    case 1: return "boolean";
    case 2: return "number";
    case 3: return "string";
    case 4: return "table";
    default: return "function";
  }
}

std::string Value::to_display_string() const {
  if (is_nil()) return "nil";
  if (is_bool()) return boolean() ? "true" : "false";
  if (is_number()) {
    const double d = number();
    // Non-finite text is pinned: platforms disagree on "inf" vs "Inf" and
    // negative NaNs print as "-nan" with glibc, which breaks byte-identical
    // determinism of traces and fuzz corpora. NaN has no meaningful sign.
    if (std::isnan(d)) return "nan";
    if (std::isinf(d)) return d > 0 ? "inf" : "-inf";
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", d);
      return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.14g", d);
    return buf;
  }
  if (is_string()) return str();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s: %p", type_name(),
                is_table() ? static_cast<const void*>(table().get())
                           : static_cast<const void*>(callable().get()));
  return buf;
}

namespace {

bool is_space_byte(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<double> Value::to_number() const {
  if (is_number()) return number();
  if (!is_string()) return std::nullopt;
  // String coercion, done deterministically instead of leaning on platform
  // strtod quirks: leading/trailing whitespace (the full Lua set, newlines
  // included) is skipped, and 0x/0X hex literals are parsed here — C
  // libraries disagree on partial hex forms like "0x" and hex-float
  // extensions, and a policy fuzzer needs one answer everywhere.
  const std::string& raw = str();
  std::size_t b = 0;
  std::size_t e = raw.size();
  while (b < e && is_space_byte(raw[b])) ++b;
  while (e > b && is_space_byte(raw[e - 1])) --e;
  if (b == e) return std::nullopt;
  const std::string body = raw.substr(b, e - b);

  std::size_t i = 0;
  double sign = 1.0;
  if (body[i] == '+' || body[i] == '-') {
    if (body[i] == '-') sign = -1.0;
    ++i;
  }
  if (i + 1 < body.size() && body[i] == '0' &&
      (body[i + 1] == 'x' || body[i + 1] == 'X')) {
    // Hex integer: one or more hex digits, nothing else (Lua 5.1 hex
    // literals are integers; no hex floats).
    i += 2;
    if (i >= body.size()) return std::nullopt;
    double v = 0.0;
    for (; i < body.size(); ++i) {
      const int d = hex_digit(body[i]);
      if (d < 0) return std::nullopt;
      v = v * 16.0 + d;
    }
    return sign * v;
  }

  const char* s = body.c_str();
  char* end = nullptr;
  const double d = std::strtod(s, &end);
  if (end == s || *end != '\0') return std::nullopt;
  return d;
}

Value Table::get(const Value& key) const {
  if (key.is_number()) {
    const auto it = num_keys.find(key.number());
    return it == num_keys.end() ? Value{} : it->second;
  }
  if (key.is_string()) {
    const auto it = str_keys.find(key.str());
    return it == str_keys.end() ? Value{} : it->second;
  }
  if (key.is_nil()) throw LuaError("table index is nil");
  throw LuaError(std::string("unsupported table key type: ") + key.type_name());
}

void Table::set(const Value& key, Value value) {
  if (key.is_number()) return set_num(key.number(), std::move(value));
  if (key.is_string()) return set_str(key.str(), std::move(value));
  if (key.is_nil()) throw LuaError("table index is nil");
  throw LuaError(std::string("unsupported table key type: ") + key.type_name());
}

void Table::set_num(double key, Value value) {
  if (std::isnan(key)) throw LuaError("table index is NaN");
  if (value.is_nil()) {
    if (num_keys.erase(key) != 0) ++erase_version;
  } else {
    num_keys[key] = std::move(value);
  }
}

void Table::set_str(const std::string& key, Value value) {
  if (value.is_nil()) {
    if (str_keys.erase(key) != 0) ++erase_version;
  } else {
    str_keys[key] = std::move(value);
  }
}

Value* Table::slot_num(double key) {
  if (std::isnan(key)) throw LuaError("table index is NaN");
  return &num_keys[key];
}

double Table::length() const {
  // One ordered walk from key 1: count consecutive integers, step over
  // the fractional keys between them, stop at the first gap.
  double n = 0.0;
  for (auto it = num_keys.lower_bound(1.0); it != num_keys.end(); ++it) {
    if (it->first == n + 1.0) n += 1.0;
    else if (it->first > n + 1.0) break;
  }
  return n;
}

TablePtr make_table() { return std::make_shared<Table>(); }

CallablePtr make_builtin(std::string name, Callable::Builtin fn) {
  auto c = std::make_shared<Callable>();
  c->name = std::move(name);
  c->builtin = std::move(fn);
  return c;
}

}  // namespace mantle::lua

#pragma once

#include <cstdio>
#include <string>

/// \file log.hpp
/// Minimal leveled logger. Off (Warn) by default so test and benchmark
/// output stays clean; harnesses raise the level with --verbose-style
/// flags. Not thread-safe beyond what stdio provides. A scenario runs on
/// one thread; the workers of the bench harness's parallel seed sweep
/// read the level but never set it.

namespace mantle {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4 };

class Log {
 public:
  static LogLevel level() noexcept { return level_; }
  static void set_level(LogLevel lvl) noexcept { level_ = lvl; }

  template <typename... Args>
  static void write(LogLevel lvl, const char* fmt, Args... args) {
    if (lvl < level_) return;
    std::fprintf(stderr, "[%s] ", name(lvl));
    std::fprintf(stderr, fmt, args...);
    std::fputc('\n', stderr);
  }

  static void write(LogLevel lvl, const char* msg) {
    if (lvl < level_) return;
    std::fprintf(stderr, "[%s] %s\n", name(lvl), msg);
  }

 private:
  static const char* name(LogLevel lvl) noexcept {
    switch (lvl) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
  }

  static inline LogLevel level_ = LogLevel::Warn;
};

#define MANTLE_LOG_DEBUG(...) \
  ::mantle::Log::write(::mantle::LogLevel::Debug, __VA_ARGS__)
#define MANTLE_LOG_INFO(...) \
  ::mantle::Log::write(::mantle::LogLevel::Info, __VA_ARGS__)
#define MANTLE_LOG_WARN(...) \
  ::mantle::Log::write(::mantle::LogLevel::Warn, __VA_ARGS__)

}  // namespace mantle

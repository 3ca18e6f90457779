#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace px::util {

namespace {

const int g_level = [] {
  if (const char* env = std::getenv("PX_LOG_LEVEL")) {
    return static_cast<int>(parse_log_level(env));
  }
  return static_cast<int>(log_level::warn);
}();

std::mutex g_log_mutex;

const char* level_name(log_level level) noexcept {
  switch (level) {
    case log_level::debug: return "DEBUG";
    case log_level::info: return "INFO";
    case log_level::warn: return "WARN";
    case log_level::error: return "ERROR";
    case log_level::off: return "OFF";
  }
  return "?";
}

}  // namespace

log_level parse_log_level(const std::string& name) noexcept {
  if (name == "debug") return log_level::debug;
  if (name == "info") return log_level::info;
  if (name == "warn") return log_level::warn;
  if (name == "error") return log_level::error;
  if (name == "off") return log_level::off;
  return log_level::warn;
}

void vlog(log_level level, const char* fmt, std::va_list args) {
  if (static_cast<int>(level) < g_level) {
    return;
  }
  std::lock_guard lock(g_log_mutex);
  std::fprintf(stderr, "[px %-5s] ", level_name(level));
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

void log(log_level level, const char* fmt, ...) {
  if (static_cast<int>(level) < g_level) {
    return;
  }
  std::va_list args;
  va_start(args, fmt);
  vlog(level, fmt, args);
  va_end(args);
}

}  // namespace px::util

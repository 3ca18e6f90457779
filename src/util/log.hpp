// Minimal leveled logger.
//
// The runtime logs only lifecycle events and anomalies; hot paths never log.
// Level comes from PX_LOG_LEVEL=debug|info|warn|error|off (default warn).
#pragma once

#include <cstdarg>
#include <string>

namespace px::util {

enum class log_level : int { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

log_level parse_log_level(const std::string& name) noexcept;

void vlog(log_level level, const char* fmt, std::va_list args);

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void log(log_level level, const char* fmt, ...);

}  // namespace px::util

#define PX_LOG_DEBUG(...) ::px::util::log(::px::util::log_level::debug, __VA_ARGS__)
#define PX_LOG_INFO(...) ::px::util::log(::px::util::log_level::info, __VA_ARGS__)
#define PX_LOG_WARN(...) ::px::util::log(::px::util::log_level::warn, __VA_ARGS__)
#define PX_LOG_ERROR(...) ::px::util::log(::px::util::log_level::error, __VA_ARGS__)

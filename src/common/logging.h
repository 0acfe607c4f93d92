// Minimal leveled logging.
//
// Logging defaults to Warn so benchmarks stay quiet; tests can raise
// verbosity to trace protocol decisions.
//
// Timestamps: log lines carry no wall-clock time (meaningless in a
// simulation). Instead each thread can install a clock source —
// sim::Simulator installs itself while it runs events — and that thread's
// lines are then prefixed with the current *simulated* time, so GDUR_TRACE
// output lines up with the TraceRecorder's spans. A thread running no
// simulator (a live site, another thread's sweep) prints no timestamp.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "common/sim_time.h"

namespace gdur {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

LogLevel log_level();
void set_log_level(LogLevel level);

/// A source of simulated timestamps for log lines.
class LogClock {
 public:
  virtual ~LogClock() = default;
  [[nodiscard]] virtual SimTime log_now() const = 0;
};

/// Installs `clock` as this thread's log timestamp source (nullptr = no
/// timestamps). Not owned; the installer must outlive its installation or
/// clear it.
void set_log_clock(const LogClock* clock);
[[nodiscard]] const LogClock* log_clock();

namespace detail {
void log_line(LogLevel level, const std::string& msg);

template <typename... Args>
std::string format(const char* fmt, Args&&... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}
}  // namespace detail

template <typename... Args>
void log(LogLevel level, const char* fmt, Args&&... args) {
  if (level < log_level()) return;
  if constexpr (sizeof...(Args) == 0) {
    detail::log_line(level, fmt);
  } else {
    detail::log_line(level, detail::format(fmt, std::forward<Args>(args)...));
  }
}

#define GDUR_TRACE(...) ::gdur::log(::gdur::LogLevel::kTrace, __VA_ARGS__)
#define GDUR_DEBUG(...) ::gdur::log(::gdur::LogLevel::kDebug, __VA_ARGS__)
#define GDUR_INFO(...) ::gdur::log(::gdur::LogLevel::kInfo, __VA_ARGS__)
#define GDUR_WARN(...) ::gdur::log(::gdur::LogLevel::kWarn, __VA_ARGS__)
#define GDUR_ERROR(...) ::gdur::log(::gdur::LogLevel::kError, __VA_ARGS__)

}  // namespace gdur

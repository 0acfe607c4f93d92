#include "common/logging.h"

namespace gdur {

namespace {
LogLevel g_level = LogLevel::kWarn;
thread_local const LogClock* g_clock = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

void set_log_clock(const LogClock* clock) { g_clock = clock; }
const LogClock* log_clock() { return g_clock; }

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
  if (g_clock != nullptr) {
    const SimTime t = g_clock->log_now();
    std::fprintf(stderr, "[%s %lld.%06llds] %s\n", level_name(level),
                 static_cast<long long>(t / 1'000'000'000),
                 static_cast<long long>((t / 1'000) % 1'000'000), msg.c_str());
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace gdur

// Warning and error lines on stderr.
//
// The engine's own events (submit, deliver, certify, vote, decide, apply,
// epoch activation, crash, recovery) go to the observability plane's flight
// recorder and the optional TraceRecorder, not to a log. What is left are
// the conditions an operator must see: a malformed frame, a failed system
// call, a client dropped for misbehaving. Each prints one line,
// `[WARN] msg` or `[ERROR] msg`.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

namespace gdur {

namespace detail {
void log_line(const char* tag, const std::string& msg);

template <typename... Args>
std::string format(const char* fmt, Args&&... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}
}  // namespace detail

template <typename... Args>
void log(const char* tag, const char* fmt, Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    detail::log_line(tag, fmt);
  } else {
    detail::log_line(tag, detail::format(fmt, std::forward<Args>(args)...));
  }
}

#define GDUR_WARN(...) ::gdur::log("WARN", __VA_ARGS__)
#define GDUR_ERROR(...) ::gdur::log("ERROR", __VA_ARGS__)

}  // namespace gdur

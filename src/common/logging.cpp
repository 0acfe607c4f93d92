#include "common/logging.h"

namespace gdur::detail {

void log_line(const char* tag, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

}  // namespace gdur::detail

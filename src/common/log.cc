#include "src/common/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>

namespace byterobust {

namespace log_internal {
// The severity threshold is process-wide (campaign workers share it); see
// log.h for why it is header-visible.
std::atomic<int> g_severity_threshold{static_cast<int>(LogLevel::kWarning)};
}  // namespace log_internal

namespace {

// The clock binding is per-thread so each campaign worker's simulator stamps
// its own log lines.
thread_local const SimTime* t_clock = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      log_internal::g_severity_threshold.load(std::memory_order_relaxed));
}

void SetLogClock(const SimTime* now) { t_clock = now; }

void ClearLogClock(const SimTime* now) {
  if (t_clock == now) {
    t_clock = nullptr;
  }
}

void LogMessage(LogLevel level, const char* module, const char* format, ...) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) {
    return;
  }
  char body[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(body, sizeof(body), format, args);
  va_end(args);

  if (t_clock != nullptr) {
    std::fprintf(stderr, "[%s][t=%s][%s] %s\n", LevelName(level),
                 FormatDuration(*t_clock).c_str(), module, body);
  } else {
    std::fprintf(stderr, "[%s][%s] %s\n", LevelName(level), module, body);
  }
}

}  // namespace byterobust

// Minimal leveled logger with simulated-time prefixes.
//
// The logger is intentionally tiny: a global severity threshold, printf-style
// formatting, and an optional SimTime stamp so log lines read like the
// production traces the paper analyzes. Tests set the threshold to kError to
// keep output quiet.

#ifndef SRC_COMMON_LOG_H_
#define SRC_COMMON_LOG_H_

#include <atomic>
#include <string>

#include "src/common/sim_time.h"

namespace byterobust {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

// The process-wide severity threshold (kWarning). Messages below it are
// discarded.
LogLevel GetLogLevel();

// Installs a simulated clock source so log lines carry sim timestamps.
// Pass nullptr to revert to untimed output. The pointer must outlive its use.
// The binding is thread-local: each thread (e.g. each parallel campaign
// worker) binds its own simulator clock without racing the others.
void SetLogClock(const SimTime* now);

// Reverts to untimed output, but only if `now` is still the thread's bound
// clock. Lets a Simulator destructor release its own binding without
// clobbering a newer simulator's clock on the same thread.
void ClearLogClock(const SimTime* now);

// Core logging call; prefer the LOG_* macros below.
void LogMessage(LogLevel level, const char* module, const char* format, ...)
    __attribute__((format(printf, 3, 4)));

namespace log_internal {
// The threshold lives in the header so the macros' enabled-check inlines to a
// single relaxed atomic load. Nothing writes it after static initialization.
//
// Concurrency contract: this atomic and the thread_local clock binding in
// log.cc are the logger's entire cross-thread surface. The threshold is
// process-wide and read by every campaign worker; relaxed ordering is
// sufficient because the value is a monotonic filter, not a synchronization
// flag — no reader infers anything about other memory from it. Being a
// std::atomic it needs no mutex (and thus no BR_GUARDED_BY); the clang
// -Wthread-safety job and the TSan suite both run over this path.
extern std::atomic<int> g_severity_threshold;
}  // namespace log_internal

// True when a message at `level` would be emitted. The BR_LOG_* macros test
// this before evaluating their arguments, so disabled log sites never pay for
// string building (e.g. Incident::ToString on the per-injection hot path).
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         log_internal::g_severity_threshold.load(std::memory_order_relaxed);
}

}  // namespace byterobust

// Module-tagged logging macros. `module` is a short component name such as
// "monitor" or "controller". The level check runs first: macro arguments are
// not evaluated when the message would be discarded.
#define BR_LOG_AT(level, module, ...)                  \
  do {                                                 \
    if (::byterobust::LogEnabled(level)) {             \
      ::byterobust::LogMessage(level, module, __VA_ARGS__); \
    }                                                  \
  } while (0)

#define BR_LOG_DEBUG(module, ...) \
  BR_LOG_AT(::byterobust::LogLevel::kDebug, module, __VA_ARGS__)
#define BR_LOG_INFO(module, ...) \
  BR_LOG_AT(::byterobust::LogLevel::kInfo, module, __VA_ARGS__)
#define BR_LOG_WARN(module, ...) \
  BR_LOG_AT(::byterobust::LogLevel::kWarning, module, __VA_ARGS__)
#define BR_LOG_ERROR(module, ...) \
  BR_LOG_AT(::byterobust::LogLevel::kError, module, __VA_ARGS__)

#endif  // SRC_COMMON_LOG_H_

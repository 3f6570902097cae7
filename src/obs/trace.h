// Trace-span recorder emitting Chrome trace_event JSON.
//
// A process-global writer, off by default, enabled by `--trace <file>`. When
// enabled, instrumented sites across the harness (seed attempts, retries,
// watchdog fires, quarantines, journal commits), the campaign engine (worker
// seed occupancy, ordered-commit waits, spill merge), and the serve daemon
// (admit -> queue -> run -> respond, sheds, cancels) append events the
// Perfetto / chrome://tracing viewers open directly.
//
// Determinism contract: the trace is strictly a side channel. Campaign,
// fleet, and serve response bytes are identical with tracing on or off —
// pinned by the cli_observability_equivalence ctest gate. Timestamps come
// from the WallSeconds() shim (the one lint-allowlisted wall-clock site),
// so the determinism lint stays clean.
//
// File format (one event per line, so a SIGTERM mid-run leaves at most one
// torn final line — tools/trace_validate.py repairs and checks exactly that):
//
//   [
//   {"ph":"B","ts":12,"pid":1,"tid":1,"name":"seed","cat":"campaign"},
//   {"ph":"E","ts":90,"pid":1,"tid":1,"name":"seed","cat":"campaign"},
//   {"ph":"M",...,"name":"trace_end"}
//   ]
//
// The disabled path is as cheap as a BR_LOG_* check: one inlined relaxed
// atomic load before any argument evaluation or clock read.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace byterobust {
namespace obs {

namespace trace_internal {
// Lives in the header so TraceEnabled() inlines to one relaxed atomic load
// (the BR_LOG_* model). Flipped only by StartTrace/StopTrace; relaxed
// ordering suffices because the writer re-checks under its mutex — the flag
// is a filter, not a synchronization edge.
extern std::atomic<bool> g_trace_enabled;
}  // namespace trace_internal

// True when a trace file is open. Instrumented sites test this before
// building names or reading the clock, so a disabled site costs one load.
inline bool TraceEnabled() {
  return trace_internal::g_trace_enabled.load(std::memory_order_relaxed);
}

// Opens `path` and starts recording. False + *error if the file cannot be
// opened (an already-running trace is stopped first, so the last Start
// wins). Also enables the metrics registry (src/obs/metrics.h) so the
// StopTrace() footer can embed final counter values.
bool StartTrace(const std::string& path, std::string* error);

// Writes counter footer events + the closing "]" and closes the file.
// Idempotent; safe if no trace is running.
void StopTrace();

// Emits a complete ("X" phase) event covering [start_s, end_s] on the
// calling thread's track — for retroactively-known intervals such as a
// serve request's queue wait. Times are WallSeconds() readings.
void TraceComplete(const char* name, const char* cat, double start_s,
                   double end_s);

// Emits an instant ("i" phase) event, optionally with one integer arg
// rendered as {"v":arg} — e.g. watchdog_fire, request_shed.
void TraceInstant(const char* name, const char* cat);
void TraceInstantArg(const char* name, const char* cat, std::int64_t arg);

// RAII span: "B" at construction, "E" at destruction, on the calling
// thread's track. Events nest per thread, so scoped spans always produce
// balanced, properly nested B/E pairs. `name` and `cat` must outlive the
// span (string literals at every call site).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : ScopedSpan(name, cat, /*has_arg=*/false, 0) {}
  ScopedSpan(const char* name, const char* cat, std::int64_t arg)
      : ScopedSpan(name, cat, /*has_arg=*/true, arg) {}
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ScopedSpan(const char* name, const char* cat, bool has_arg,
             std::int64_t arg);
  const char* name_;
  const char* cat_;
  bool active_;  // trace was enabled at construction; emit the matching E
};

}  // namespace obs
}  // namespace byterobust

#endif  // SRC_OBS_TRACE_H_

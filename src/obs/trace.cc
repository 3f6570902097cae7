#include "src/obs/trace.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/harness/wallclock.h"
#include "src/obs/metrics.h"

namespace byterobust {
namespace obs {

namespace trace_internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace trace_internal

namespace {

// Small per-thread track ids (1, 2, 3, ...) assigned on first event, so
// traces are compact and stable run-to-run in thread-creation order rather
// than exposing opaque pthread ids.
std::atomic<int> g_next_tid{1};
thread_local int t_trace_tid = 0;

int ThisThreadTraceTid() {
  if (t_trace_tid == 0) {
    t_trace_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_trace_tid;
}

// All writer state behind one mutex: events are single fwrite calls of whole
// lines, so a reader of a torn (SIGKILLed) file sees at most one partial
// final line.
class TraceWriter {
 public:
  bool Open(const std::string& path, std::string* error) {
    CloseLocked_Outer();
    const MutexLock lock(&mu_);
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      if (error != nullptr) {
        *error = "cannot open trace file '" + path + "': " +
                 std::strerror(errno);
      }
      return false;
    }
    // Line-buffered: every event line reaches the OS as it is written, so a
    // hard kill tears at a line boundary (plus at most one partial line).
    std::setvbuf(file_, nullptr, _IOLBF, 1 << 16);
    start_wall_s_ = WallSeconds();
    events_ = 0;
    std::fputs("[\n", file_);
    trace_internal::g_trace_enabled.store(true, std::memory_order_relaxed);
    EmitLocked("M", "trace_start", "meta", start_wall_s_, -1.0,
               /*has_arg=*/false, 0);
    return true;
  }

  void Close() {
    // Counter footer: final metrics registry values as chrome "C" events, so
    // a trace carries its run's harness/campaign counters, then the process's
    // peak RSS. Snapshot before taking mu_ (the registry has its own lock; no
    // nesting).
    const MetricsSnapshot snap = GlobalMetrics().Snap();
    const std::uint64_t peak_rss_kb = PeakRssKb();
    const double now = WallSeconds();
    {
      const MutexLock lock(&mu_);
      if (file_ == nullptr) {
        return;
      }
      trace_internal::g_trace_enabled.store(false, std::memory_order_relaxed);
      for (const auto& [name, value] : snap.counters) {
        CounterLocked(now, name.c_str(), value);
      }
      CounterLocked(now, "process.peak_rss_kb", peak_rss_kb);
      // Footer event carries no trailing comma, closing the JSON array.
      std::fprintf(file_,
                   "{\"ph\":\"M\",\"ts\":%" PRIu64
                   ",\"pid\":%d,\"tid\":0,\"name\":\"trace_end\","
                   "\"args\":{\"v\":%" PRIu64 "}}\n]\n",
                   TsLocked(now), pid_, events_);
      std::fclose(file_);
      file_ = nullptr;
    }
  }

  // One event line. `end_s < 0` means "no dur field" (B/E/i/M phases);
  // otherwise emits an "X" complete event with dur = end_s - start_s.
  void Emit(const char* ph, const char* name, const char* cat, double start_s,
            double end_s, bool has_arg, std::int64_t arg) {
    const MutexLock lock(&mu_);
    EmitLocked(ph, name, cat, start_s, end_s, has_arg, arg);
  }

 private:
  void CounterLocked(double wall_s, const char* name, std::uint64_t value)
      BR_REQUIRES(mu_) {
    std::fprintf(file_,
                 "{\"ph\":\"C\",\"ts\":%" PRIu64
                 ",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
                 "\"args\":{\"v\":%" PRIu64 "}},\n",
                 TsLocked(wall_s), pid_, name, value);
  }

  void EmitLocked(const char* ph, const char* name, const char* cat,
                  double start_s, double end_s, bool has_arg,
                  std::int64_t arg) BR_REQUIRES(mu_) {
    if (file_ == nullptr) {
      return;
    }
    char line[320];
    int n = std::snprintf(line, sizeof line,
                          "{\"ph\":\"%s\",\"ts\":%" PRIu64
                          ",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                          "\"cat\":\"%s\"",
                          ph, TsLocked(start_s), pid_, ThisThreadTraceTid(),
                          name, cat);
    if (end_s >= 0.0) {
      const double dur = end_s > start_s ? end_s - start_s : 0.0;
      n += std::snprintf(line + n, sizeof line - n, ",\"dur\":%" PRIu64,
                         static_cast<std::uint64_t>(dur * 1e6 + 0.5));
    }
    if (has_arg) {
      n += std::snprintf(line + n, sizeof line - n,
                         ",\"args\":{\"v\":%lld}",
                         static_cast<long long>(arg));
    }
    std::snprintf(line + n, sizeof line - n, "},\n");
    std::fputs(line, file_);
    ++events_;
  }

  std::uint64_t TsLocked(double wall_s) const BR_REQUIRES(mu_) {
    const double rel = wall_s - start_wall_s_;
    return rel > 0.0 ? static_cast<std::uint64_t>(rel * 1e6 + 0.5) : 0;
  }

  // Close() has annotations attached to mu_; this wrapper exists so Open()
  // can restart an already-running trace without holding mu_ across the
  // metrics snapshot Close() takes.
  void CloseLocked_Outer() { Close(); }

  mutable Mutex mu_;
  std::FILE* file_ BR_GUARDED_BY(mu_) = nullptr;
  double start_wall_s_ BR_GUARDED_BY(mu_) = 0.0;
  std::uint64_t events_ BR_GUARDED_BY(mu_) = 0;
  const int pid_ = static_cast<int>(::getpid());
};

TraceWriter& Writer() {
  static TraceWriter* writer = new TraceWriter;  // never destroyed
  return *writer;
}

}  // namespace

bool StartTrace(const std::string& path, std::string* error) {
  if (!Writer().Open(path, error)) {
    return false;
  }
  // Traces embed a counter footer; make sure counters actually count.
  SetMetricsEnabled(true);
  return true;
}

void StopTrace() { Writer().Close(); }

std::uint64_t PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  std::uint64_t kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64, &kb) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kb;
}

void TraceComplete(const char* name, const char* cat, double start_s,
                   double end_s) {
  if (!TraceEnabled()) {
    return;
  }
  Writer().Emit("X", name, cat, start_s, end_s, /*has_arg=*/false, 0);
}

void TraceInstant(const char* name, const char* cat) {
  if (!TraceEnabled()) {
    return;
  }
  Writer().Emit("i", name, cat, WallSeconds(), -1.0, /*has_arg=*/false, 0);
}

void TraceInstantArg(const char* name, const char* cat, std::int64_t arg) {
  if (!TraceEnabled()) {
    return;
  }
  Writer().Emit("i", name, cat, WallSeconds(), -1.0, /*has_arg=*/true, arg);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat, bool has_arg,
                       std::int64_t arg, double start_s)
    : name_(name), cat_(cat), active_(TraceEnabled()) {
  if (active_) {
    Writer().Emit("B", name_, cat_, start_s >= 0.0 ? start_s : WallSeconds(), -1.0,
                  has_arg, arg);
  }
}

ScopedSpan::~ScopedSpan() {
  if (active_) {
    Writer().Emit("E", name_, cat_, WallSeconds(), -1.0, /*has_arg=*/false,
                  0);
  }
}

}  // namespace obs
}  // namespace byterobust

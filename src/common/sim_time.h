// Simulated-time primitives shared by every module.
//
// All simulation timestamps and durations are expressed as signed 64-bit
// microsecond counts. Using a single integral representation keeps the
// discrete-event simulator deterministic (no floating-point drift when
// summing durations) and makes event ordering total.

#ifndef SRC_COMMON_SIM_TIME_H_
#define SRC_COMMON_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace byterobust {

// A point in simulated time, in microseconds since simulation start.
using SimTime = std::int64_t;

// A span of simulated time, in microseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;

// Largest span in days accepted from outside the program (CLI --days, the
// serve "days" field): 100 years, far inside SimTime's int64 microsecond
// range (~292,000 years), so Days() on an accepted value cannot overflow.
inline constexpr double kMaxExternalDays = 36500.0;

// Closed ranges of the other campaign numbers accepted from outside the
// program: the CLI flags and the serve request fields of the same meaning
// share them, and `text` is how both parsers' error messages print them.
struct ExternalRange {
  double lo;
  double hi;
  const char* text;
  constexpr bool Contains(double v) const { return v >= lo && v <= hi; }  // false for NaN
};
inline constexpr ExternalRange kExternalSeeds{1.0, 100000.0, "[1, 100000]"};
inline constexpr ExternalRange kExternalBaseSeed{0.0, 9.0e15, "[0, 9e15]"};
inline constexpr ExternalRange kExternalJobs{1.0, 256.0, "[1, 256]"};
inline constexpr ExternalRange kExternalRetries{0.0, 100.0, "[0, 100]"};

// Converts a (possibly fractional) number of seconds to a SimDuration.
constexpr SimDuration Seconds(double s) { return static_cast<SimDuration>(s * kSecond); }
constexpr SimDuration Milliseconds(double ms) {
  return static_cast<SimDuration>(ms * kMillisecond);
}
constexpr SimDuration Minutes(double m) { return static_cast<SimDuration>(m * kMinute); }
constexpr SimDuration Hours(double h) { return static_cast<SimDuration>(h * kHour); }
constexpr SimDuration Days(double d) { return static_cast<SimDuration>(d * kDay); }

// Converts a SimDuration back to floating-point units for reporting.
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }
constexpr double ToMinutes(SimDuration d) { return static_cast<double>(d) / kMinute; }
constexpr double ToHours(SimDuration d) { return static_cast<double>(d) / kHour; }
constexpr double ToDays(SimDuration d) { return static_cast<double>(d) / kDay; }

// Renders a duration as a compact human-readable string, e.g. "2h03m", "45.0s",
// "120ms". Used by logs and table output.
std::string FormatDuration(SimDuration d);

}  // namespace byterobust

#endif  // SRC_COMMON_SIM_TIME_H_

#include "src/harness/supervisor.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/harness/wallclock.h"

namespace byterobust {
namespace {

bool ParseProbability(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && *out >= 0.0 && *out <= 1.0;
}

bool ParseNonNegativeInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || value < 0 ||
      value > 1'000'000'000L) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Cap on BYTEROBUST_SEED_TIMEOUT_S (about 11.6 days). The watchdog hands its
// deadline to CondVar::WaitFor, whose double-to-chrono conversion overflows
// near 9.2e9 s; an overflowed wait returns at once and the watchdog spins.
constexpr double kMaxSeedTimeoutS = 1e6;

// Per-decision salts: each (index, attempt, kind) triple gets its own Rng so
// fault draws are independent of each other and of --jobs scheduling.
constexpr std::uint64_t kCrashSalt = 0x6372617368ULL;  // "crash"
constexpr std::uint64_t kThrowSalt = 0x7468726f77ULL;  // "throw"
constexpr std::uint64_t kHangSalt = 0x68616e67ULL;     // "hang"

bool FaultStrikes(std::uint64_t seed, int index, int attempt, std::uint64_t salt,
                  double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  Rng rng(HarnessMix(seed ^ HarnessMix(static_cast<std::uint64_t>(index) * 0x9E3779B9ULL ^
                                       static_cast<std::uint64_t>(attempt) * 0x85EBCA6BULL ^
                                       salt)));
  return rng.Bernoulli(p);
}

}  // namespace

bool HarnessFaultSpec::Parse(const std::string& text, HarnessFaultSpec* spec,
                             std::string* error) {
  *spec = HarnessFaultSpec();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(',', pos), text.size());
    const std::string part = text.substr(pos, end - pos);
    pos = end + 1;
    if (part.empty()) {
      continue;
    }
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size()) {
      *error = "harness fault spec entry '" + part + "' is not kind:value";
      return false;
    }
    const std::string kind = part.substr(0, colon);
    const std::string value = part.substr(colon + 1);
    bool ok;
    if (kind == "crash") {
      ok = ParseProbability(value, &spec->crash_p);
    } else if (kind == "hang") {
      ok = ParseProbability(value, &spec->hang_p);
    } else if (kind == "throw") {
      ok = ParseProbability(value, &spec->throw_p);
    } else if (kind == "crash_seed") {
      ok = ParseNonNegativeInt(value, &spec->crash_seed);
    } else if (kind == "stop_after") {
      ok = ParseNonNegativeInt(value, &spec->stop_after);
    } else {
      *error = "unknown harness fault kind '" + kind +
               "' (expected crash, hang, throw, crash_seed, or stop_after)";
      return false;
    }
    if (!ok) {
      *error = "harness fault '" + kind + "' has invalid value '" + value + "'";
      return false;
    }
  }
  return true;
}

bool SupervisorConfig::FromEnv(std::uint64_t campaign_seed, SupervisorConfig* config,
                               std::string* error) {
  config->seed = campaign_seed;
  if (const char* timeout = std::getenv("BYTEROBUST_SEED_TIMEOUT_S")) {
    char* end = nullptr;
    const double value = std::strtod(timeout, &end);
    // The negated range test also rejects NaN.
    if (*timeout == '\0' || *end != '\0' || !(value > 0.0 && value <= kMaxSeedTimeoutS)) {
      *error = "BYTEROBUST_SEED_TIMEOUT_S must be a number in (0, 1e6], got '" +
               std::string(timeout) + "'";
      return false;
    }
    config->timeout_override_s = value;
  }
  if (const char* faults = std::getenv("BYTEROBUST_HARNESS_FAULTS")) {
    if (!HarnessFaultSpec::Parse(faults, &config->faults, error)) {
      return false;
    }
  }
  return true;
}

void InjectHarnessFault(const HarnessFaultSpec& faults, std::uint64_t seed,
                        int index, int attempt, const CancelToken& token) {
  if (!faults.any()) {
    return;
  }
  if (faults.crash_seed == index) {
    throw InjectedFaultError("injected persistent crash on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kCrashSalt, faults.crash_p)) {
    throw InjectedFaultError("injected crash fault on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kThrowSalt, faults.throw_p)) {
    throw InjectedFaultError("injected throw fault on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kHangSalt, faults.hang_p)) {
    // Cooperative hang: spin on the token so the watchdog's cancel converts
    // this into a retryable timeout instead of an abandoned thread.
    while (!token.cancelled()) {
      SleepMs(2.0);
    }
    throw SeedCancelledError("injected hang on seed index " + std::to_string(index) +
                             " (attempt " + std::to_string(attempt) +
                             ") cancelled by watchdog");
  }
}

void SeedSupervisor::RequestStop() {
  if (config_.external_stop != nullptr) {
    config_.external_stop->store(true, std::memory_order_release);
  }
}

bool SeedSupervisor::stop_requested() const {
  return config_.external_stop != nullptr &&
         config_.external_stop->load(std::memory_order_acquire);
}

void SeedSupervisor::NoteCommitted() {
  ++committed_;
  if (config_.faults.stop_after >= 0 && committed_ >= config_.faults.stop_after) {
    RequestStop();
  }
}

double SeedSupervisor::AttemptTimeoutS() const {
  if (config_.timeout_override_s > 0.0) {
    return config_.timeout_override_s;
  }
  const double floor_s = std::max(config_.timeout_floor_s, 0.001);
  if (!have_estimate_) {
    return floor_s;
  }
  return std::max(floor_s, config_.timeout_factor * ewma_seconds_);
}

void SeedSupervisor::NoteDuration(double seconds) {
  ewma_seconds_ = have_estimate_ ? 0.7 * ewma_seconds_ + 0.3 * seconds : seconds;
  have_estimate_ = true;
}

double SeedSupervisor::BackoffMs(int index, int retry) const {
  const BackoffPolicy policy(
      config_.backoff,
      HarnessMix(config_.seed ^ static_cast<std::uint64_t>(index) * 0xC2B2AE35ULL));
  return policy.DelayMs(retry);
}

std::string SeedSupervisor::WatchdogMessage(double timeout_s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "seed watchdog fired after %.3fs and the worker did not yield",
                timeout_s);
  return buf;
}

}  // namespace byterobust

// Seed supervision policy: a wall-clock watchdog with bounded,
// deterministically-jittered retries, and quarantine for seeds that keep
// failing instead of aborting the campaign.
//
// Supervision model: the campaign coordinator (src/campaign/engine.cc) runs
// every attempt on its own thread, which shares only heap state with it, and
// hands the attempt a cooperative CancelToken. When the watchdog deadline
// passes, the coordinator cancels the token and grants `cancel_grace_s`.
// An attempt that yields (throws SeedCancelledError) is a transient timeout
// and is retried. An attempt that has not returned by the end of the grace
// is abandoned via detach() and its seed quarantined at once, because a
// deterministic hang would only hang again. The only code that polls the
// token is the injected `hang` fault below: a campaign's real seed function
// takes no token, so a real seed past its deadline is always abandoned and
// quarantined, never retried. A seed that completes successfully after
// cancellation but within the grace is accepted: timing must never change
// output bytes.
//
// The watchdog deadline is a trailing EWMA of successful seed durations
// scaled by `timeout_factor`, floored at `timeout_floor_s`, or pinned by
// BYTEROBUST_SEED_TIMEOUT_S. Timing only steers scheduling (when to cancel,
// how long to sleep between retries); it never reaches campaign output.
//
// Self-fault-injection (BYTEROBUST_HARNESS_FAULTS) strikes the attempt
// threads before the real seed function runs, with decisions drawn from an
// Rng keyed on (campaign seed, seed index, attempt, fault kind) — identical
// across --jobs values, so a faulted campaign that completes is
// byte-identical to a clean one.

#ifndef SRC_HARNESS_SUPERVISOR_H_
#define SRC_HARNESS_SUPERVISOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/harness/backoff.h"

namespace byterobust {

// Cooperative cancellation handle passed to every supervised attempt. The
// flag lives on the heap (shared_ptr) so an abandoned attempt may keep
// polling it safely after the coordinator has moved on.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  explicit CancelToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Thrown by a cancelled attempt that noticed its token — a cooperative
// timeout, classified transient (retried).
class SeedCancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by the self-fault-injection layer.
class InjectedFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Parsed BYTEROBUST_HARNESS_FAULTS spec. Grammar: comma-separated
// `kind:value` pairs — `crash:P`, `hang:P`, `throw:P` (probabilities in
// [0,1], independently re-drawn per attempt), `crash_seed:IDX` (that seed
// index fails every attempt — the persistent-failure/quarantine case), and
// `stop_after:K` (request campaign stop once K seeds have committed — the
// deterministic stand-in for SIGINT in tests).
struct HarnessFaultSpec {
  double crash_p = 0.0;
  double hang_p = 0.0;
  double throw_p = 0.0;
  int crash_seed = -1;
  int stop_after = -1;

  bool any() const {
    return crash_p > 0.0 || hang_p > 0.0 || throw_p > 0.0 || crash_seed >= 0 ||
           stop_after >= 0;
  }

  static bool Parse(const std::string& text, HarnessFaultSpec* spec,
                    std::string* error);
};

struct SupervisorConfig {
  int max_attempts = 3;            // 1 initial try + (max_attempts - 1) retries
  BackoffConfig backoff;           // pacing between retries
  double timeout_override_s = 0.0; // > 0 pins the watchdog deadline
  // Minimum deadline, and the deadline before any duration estimate exists.
  // Deliberately generous: a spurious cancellation of a slow-but-healthy
  // seed would change campaign output, while a true hang only costs these
  // minutes once. Tests pin BYTEROBUST_SEED_TIMEOUT_S instead.
  double timeout_floor_s = 300.0;
  double timeout_factor = 10.0;    // deadline = factor * trailing seed duration
  double cancel_grace_s = 0.5;     // wait after cancel before abandoning
  std::uint64_t seed = 0;          // campaign base seed; keys backoff jitter + faults
  HarnessFaultSpec faults;
  std::atomic<bool>* external_stop = nullptr;  // shared with the signal handler

  // Applies BYTEROBUST_SEED_TIMEOUT_S (seconds, in (0, 1e6]) and
  // BYTEROBUST_HARNESS_FAULTS on top of the defaults. False + *error on a
  // malformed or out-of-range value. Retries come from --retries or the serve
  // request's "retries" field, not from here.
  static bool FromEnv(std::uint64_t campaign_seed, SupervisorConfig* config,
                      std::string* error);
};

// Deterministically decides whether this (seed index, attempt) draws an
// injected fault, and delivers it: crash/throw raise InjectedFaultError,
// hang spins on the token until the watchdog cancels it.
void InjectHarnessFault(const HarnessFaultSpec& faults, std::uint64_t seed,
                        int index, int attempt, const CancelToken& token);

// The supervision policy the campaign coordinator (src/campaign/engine.cc)
// applies to every seed attempt: the watchdog deadline, retry backoff, the
// watchdog's quarantine message and the stop plumbing. It owns no thread and
// no lock: only the coordinator thread calls it.
class SeedSupervisor {
 public:
  explicit SeedSupervisor(const SupervisorConfig& config) : config_(config) {}
  SeedSupervisor(const SeedSupervisor&) = delete;
  SeedSupervisor& operator=(const SeedSupervisor&) = delete;

  const SupervisorConfig& config() const { return config_; }
  int max_attempts() const { return std::max(1, config_.max_attempts); }

  // Current watchdog deadline in seconds for one attempt.
  double AttemptTimeoutS() const;
  // Feeds one successful attempt's duration into the trailing estimate.
  void NoteDuration(double seconds);
  // Sleep before retry `retry` (1-based) of seed `index`: pure in
  // (campaign seed, index, retry), so pacing never depends on scheduling.
  double BackoffMs(int index, int retry) const;
  // The quarantine error of an attempt abandoned after `timeout_s`.
  static std::string WatchdogMessage(double timeout_s);

  // Stop plumbing, shared with the CLI's signal handler through
  // config_.external_stop. NoteCommitted also honours the stop_after fault.
  void RequestStop();
  bool stop_requested() const;
  void NoteCommitted();
  int committed() const { return committed_; }

 private:
  const SupervisorConfig config_;
  double ewma_seconds_ = 0.0;
  bool have_estimate_ = false;
  int committed_ = 0;
};

}  // namespace byterobust

#endif  // SRC_HARNESS_SUPERVISOR_H_

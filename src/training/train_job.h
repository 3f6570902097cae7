// Training-job runtime: drives the step loop on the simulator and exposes the
// state that ByteRobust's data plane observes (steps, loss, MFU, hang state).

#ifndef SRC_TRAINING_TRAIN_JOB_H_
#define SRC_TRAINING_TRAIN_JOB_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"
#include "src/training/code_version.h"
#include "src/training/job_config.h"
#include "src/training/loss_model.h"
#include "src/training/perf_model.h"

namespace byterobust {

enum class JobRunState {
  kStopped,  // not running (pre-start, or stopped by the controller)
  kRunning,  // stepping normally
  kHung,     // silently stopped making progress (implicit failure)
  kCrashed,  // fail-stop: processes exited
};

const char* JobRunStateName(JobRunState state);

// One completed training step, as the per-step path sees it.
struct StepRecord {
  std::int64_t step = 0;
  SimTime start = 0;
  SimTime end = 0;
  double mfu = 0.0;
  double loss = 0.0;
  double grad_norm = 0.0;
  bool is_nan = false;
  bool recompute = false;  // re-doing work lost to an unsaved-progress restart
  int run_id = 0;
};

// Consecutive completed steps that share every condition: step time, MFU,
// NaN and recompute flags and run id. Step i (0-based) covers
// [start + i * step_time, start + (i + 1) * step_time]. A healthy job emits
// one run per stretch between simulator events instead of one record per
// step; Record(i) expands a step when a consumer needs it.
struct StepRun {
  std::int64_t first_step = 0;
  std::int64_t count = 0;
  SimTime start = 0;
  SimDuration step_time = 0;
  double mfu = 0.0;
  bool is_nan = false;
  bool recompute = false;  // every step re-does work lost to a restart
  int run_id = 0;
  const LossModel* losses = nullptr;  // the job's loss curve

  SimTime StepEnd(std::int64_t i) const { return start + (i + 1) * step_time; }
  SimTime end() const { return StepEnd(count - 1); }
  StepRecord Record(std::int64_t i) const;
};

// Watches completed steps. Horizon() bounds the next run: the observer takes
// at most that many leading steps of `next` (whose count is the longest run
// the job could take) as one run. A run longer than one step must leave every
// observer silent — no anomaly, no event, no change to the job — so observers
// that may act on a step ask for a horizon of 1 there, and a one-step run is
// exactly the per-step path. Horizon() is O(1) and allocates nothing.
class StepObserver {
 public:
  static constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();

  virtual std::int64_t Horizon(const StepRun& next) const = 0;
  virtual void OnRun(const StepRun& run) = 0;

 protected:
  ~StepObserver() = default;  // the job holds observers, never owns them
};

class TrainJob {
 public:
  TrainJob(const JobConfig& config, Simulator* sim, Cluster* cluster, std::uint64_t seed);

  TrainJob(const TrainJob&) = delete;
  TrainJob& operator=(const TrainJob&) = delete;

  // Observers of completed steps (monitor, metrics, checkpoints), notified in
  // registration order. The job does not own them.
  void AddStepObserver(StepObserver* observer) { observers_.push_back(observer); }

  // Observer invoked after every run-state transition (Start/Stop/Crash/Hang).
  // The quiescent monitor uses it to re-arm its watchdog on demand instead of
  // polling the state on a fixed cadence.
  using StateObserver = std::function<void(JobRunState)>;
  void AddStateObserver(StateObserver observer) {
    state_observers_.push_back(std::move(observer));
  }

  // -- control ---------------------------------------------------------------

  // Begins (or resumes) stepping from `resume_step()`. Increments run_count.
  void Start();

  // Controller-initiated stop: cancels the in-flight step.
  void Stop();

  // Fail-stop failure: processes die; the in-flight step is lost.
  void Crash();

  // Silent hang: progress stops but processes stay alive. `culprit` is the
  // rank whose stuck operation seeded the hang (for stack-trace synthesis).
  void Hang(Rank culprit);

  // Loss turns NaN (SDC / bad data / code bug); stepping continues.
  void SetNanLoss(bool nan) { nan_loss_ = nan; }
  bool nan_loss() const { return nan_loss_; }

  // Sets the step to resume from (checkpoint restore). Must be <= the max
  // step reached; steps in (resume, max] will be flagged as recompute.
  void RollbackToStep(std::int64_t step);

  // -- code versions (hot-update / rollback support) --------------------------

  void ApplyCodeVersion(const CodeVersion& version);
  // Reverts to the previous version; returns false if already at the base.
  bool RollbackCodeVersion();
  const CodeVersion& current_version() const { return versions_.back(); }
  int version_depth() const { return static_cast<int>(versions_.size()); }
  // True if a version with this id is currently applied (anywhere on the
  // version stack).
  bool HasVersion(int id) const;

  // -- observable state --------------------------------------------------------

  JobRunState state() const { return state_; }
  std::int64_t resume_step() const { return resume_step_; }
  std::int64_t steps_completed() const { return steps_completed_; }
  std::int64_t max_step_reached() const { return max_step_reached_; }
  int run_count() const { return run_count_; }
  Rank hang_culprit() const { return hang_culprit_; }
  SimTime last_progress_time() const { return last_progress_time_; }

  double CurrentMfu() const;
  SimDuration CurrentStepTime() const;

  const JobConfig& config() const { return config_; }
  const Topology& topology() const { return *topology_; }
  Cluster* cluster() { return cluster_; }

 private:
  void ScheduleNextStep();
  void CompleteStep();
  // Longest run of up to `count` steps from `start` that stays on one side of
  // the recompute boundary and inside every observer's horizon.
  StepRun NextRun(SimTime start, SimDuration step_time, std::int64_t count) const;
  void FinishRun(const StepRun& run);
  void NotifyStateObservers();

  JobConfig config_;
  Simulator* sim_;
  Cluster* cluster_;
  // Frozen campaign template: shared, immutable per parallelism config.
  std::shared_ptr<const Topology> topology_;
  PerfModel perf_;
  LossModel loss_;

  JobRunState state_ = JobRunState::kStopped;
  std::vector<CodeVersion> versions_;
  std::vector<StepObserver*> observers_;
  std::vector<StateObserver> state_observers_;

  std::int64_t resume_step_ = 0;       // next step index to execute
  std::int64_t steps_completed_ = 0;   // total completions incl. recompute
  std::int64_t max_step_reached_ = 0;  // high-water mark of progress
  int run_count_ = 0;
  bool nan_loss_ = false;
  Rank hang_culprit_ = -1;
  SimTime last_progress_time_ = 0;
  SimTime step_start_ = 0;
  EventId pending_step_ = kInvalidEventId;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_TRAIN_JOB_H_

#include "src/training/train_job.h"

#include <cmath>
#include <stdexcept>

#include "src/common/log.h"

namespace byterobust {

const char* JobRunStateName(JobRunState state) {
  switch (state) {
    case JobRunState::kStopped:
      return "stopped";
    case JobRunState::kRunning:
      return "running";
    case JobRunState::kHung:
      return "hung";
    case JobRunState::kCrashed:
      return "crashed";
  }
  return "unknown";
}

TrainJob::TrainJob(const JobConfig& config, Simulator* sim, Cluster* cluster, std::uint64_t seed)
    : config_(config),
      sim_(sim),
      cluster_(cluster),
      topology_(SharedTopology(config.parallelism)),
      perf_(config),
      loss_(config, seed) {
  if (cluster_->num_training_slots() < config.parallelism.num_machines()) {
    throw std::invalid_argument("cluster smaller than the job's machine demand");
  }
  versions_.push_back(CodeVersion{0, 1.0, false, 0, false, "initial naive version"});
}

void TrainJob::Start() {
  if (state_ == JobRunState::kRunning) {
    return;
  }
  state_ = JobRunState::kRunning;
  ++run_count_;
  nan_loss_ = false;  // a restart clears transient NaN inputs
  hang_culprit_ = -1;
  last_progress_time_ = sim_->Now();
  BR_LOG_INFO("job", "%s run #%d starting at step %lld (code v%d, eff=%.2f)",
              config_.name.c_str(), run_count_, static_cast<long long>(resume_step_),
              current_version().id, current_version().efficiency);
  ScheduleNextStep();
  NotifyStateObservers();
}

void TrainJob::Stop() {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kStopped;
  NotifyStateObservers();
}

void TrainJob::Crash() {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kCrashed;
  NotifyStateObservers();
}

void TrainJob::Hang(Rank culprit) {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kHung;
  hang_culprit_ = culprit;
  NotifyStateObservers();
}

void TrainJob::NotifyStateObservers() {
  for (const auto& obs : state_observers_) {
    obs(state_);
  }
}

void TrainJob::RollbackToStep(std::int64_t step) {
  if (step < 0 || step > max_step_reached_) {
    throw std::invalid_argument("rollback step outside [0, max_step_reached]");
  }
  resume_step_ = step;
}

void TrainJob::ApplyCodeVersion(const CodeVersion& version) { versions_.push_back(version); }

bool TrainJob::HasVersion(int id) const {
  for (const CodeVersion& v : versions_) {
    if (v.id == id) {
      return true;
    }
  }
  return false;
}

bool TrainJob::RollbackCodeVersion() {
  if (versions_.size() <= 1) {
    return false;
  }
  versions_.pop_back();
  return true;
}

double TrainJob::CurrentMfu() const {
  return perf_.Mfu(current_version().efficiency, *cluster_);
}

SimDuration TrainJob::CurrentStepTime() const {
  return perf_.StepTime(current_version().efficiency, *cluster_);
}

void TrainJob::ScheduleNextStep() {
  step_start_ = sim_->Now();
  pending_step_ = sim_->Schedule(CurrentStepTime(), [this] { CompleteStep(); });
}

void TrainJob::CompleteStep() {
  pending_step_ = kInvalidEventId;
  if (state_ != JobRunState::kRunning) {
    return;
  }
  FinishOneStep();

  // Batched execution: while the job stays healthy, run every whole step that
  // ends strictly before the next pending simulator event (and within the run
  // horizon) inline, advancing the clock directly instead of paying one
  // closure + queue round-trip per step. Strict inequality preserves dispatch
  // semantics exactly: a step ending *at* the next event's timestamp goes
  // through the scheduler, so (time, schedule order) ties resolve as before.
  // Observers run at the step's own end time (the clock is advanced first)
  // and may schedule events or mutate the job; the loop re-reads both bounds
  // every iteration, so the moment an observer schedules something earlier or
  // stops/crashes/hangs the job, batching ends.
  if (config_.batched_stepping) {
    while (state_ == JobRunState::kRunning && !sim_->stop_requested()) {
      const SimDuration step_time = CurrentStepTime();
      const SimTime end = sim_->Now() + step_time;
      if (end > sim_->horizon() || end >= sim_->NextEventTime()) {
        break;
      }
      step_start_ = sim_->Now();
      sim_->AdvanceTo(end);
      FinishOneStep();
    }
  }
  if (state_ == JobRunState::kRunning) {
    ScheduleNextStep();
  }
}

void TrainJob::FinishOneStep() {
  StepRecord rec;
  rec.step = resume_step_;
  rec.start = step_start_;
  rec.end = sim_->Now();
  rec.mfu = CurrentMfu();
  rec.is_nan = nan_loss_;
  rec.loss = nan_loss_ ? std::nan("") : loss_.LossAt(rec.step);
  rec.grad_norm = nan_loss_ ? std::nan("") : loss_.GradNormFromLoss(rec.step, rec.loss);
  rec.recompute = rec.step < max_step_reached_;
  rec.run_id = run_count_;

  ++resume_step_;
  ++steps_completed_;
  max_step_reached_ = std::max(max_step_reached_, resume_step_);
  last_progress_time_ = rec.end;

  for (const auto& obs : observers_) {
    obs(rec);
  }
}

}  // namespace byterobust

#include "src/training/train_job.h"

#include <algorithm>
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
  // The scheduled step ends now, with the step time it was scheduled with.
  FinishRun(NextRun(step_start_, sim_->Now() - step_start_, 1));

  // Step runs: while the job stays healthy, claim the whole steps that end
  // strictly before the next pending simulator event (and within the run
  // horizon) inline, one run and one clock advance at a time, instead of
  // paying one closure + queue round-trip per step. Strict inequality
  // preserves dispatch semantics exactly: a step ending *at* the next event's
  // timestamp goes through the scheduler, so (time, schedule order) ties
  // resolve as before. Observer horizons keep every step an observer may act
  // on in a run of its own, so observers run at that step's own end time and
  // may schedule events or mutate the job; the loop re-reads every bound per
  // run, so the moment one schedules something earlier or stops, crashes or
  // hangs the job, the runs end.
  if (config_.batched_stepping) {
    while (state_ == JobRunState::kRunning && !sim_->stop_requested()) {
      const SimTime start = sim_->Now();
      const SimDuration step_time = CurrentStepTime();
      const SimTime last_end = std::min(sim_->horizon(), sim_->NextEventTime() - 1);
      if (step_time <= 0 || last_end - start < step_time) {
        break;
      }
      const StepRun run = NextRun(start, step_time, (last_end - start) / step_time);
      sim_->AdvanceTo(run.end());
      FinishRun(run);
    }
  }
  if (state_ == JobRunState::kRunning) {
    ScheduleNextStep();
  }
}

StepRun TrainJob::NextRun(SimTime start, SimDuration step_time, std::int64_t count) const {
  StepRun run;
  run.first_step = resume_step_;
  run.start = start;
  run.step_time = step_time;
  run.mfu = CurrentMfu();
  run.is_nan = nan_loss_;
  run.recompute = resume_step_ < max_step_reached_;
  run.run_id = run_count_;
  run.losses = &loss_;
  if (run.recompute) {
    count = std::min(count, max_step_reached_ - resume_step_);
  }
  for (const StepObserver* obs : observers_) {
    if (count <= 1) {
      break;
    }
    run.count = count;
    count = std::min(count, std::max<std::int64_t>(1, obs->Horizon(run)));
  }
  run.count = count;
  return run;
}

void TrainJob::FinishRun(const StepRun& run) {
  resume_step_ += run.count;
  steps_completed_ += run.count;
  max_step_reached_ = std::max(max_step_reached_, resume_step_);
  last_progress_time_ = run.end();

  for (StepObserver* obs : observers_) {
    obs->OnRun(run);
  }
}

StepRecord StepRun::Record(std::int64_t i) const {
  StepRecord rec;
  rec.step = first_step + i;
  rec.start = start + i * step_time;
  rec.end = StepEnd(i);
  rec.mfu = mfu;
  rec.is_nan = is_nan;
  rec.loss = is_nan ? std::nan("") : losses->LossAt(rec.step);
  rec.grad_norm = is_nan ? std::nan("") : losses->GradNormFromLoss(rec.step, rec.loss);
  rec.recompute = recompute;
  rec.run_id = run_id;
  return rec;
}

}  // namespace byterobust

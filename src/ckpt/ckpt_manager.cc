#include "src/ckpt/ckpt_manager.h"

#include <algorithm>

#include "src/ckpt/size_model.h"

namespace byterobust {

namespace {
constexpr double kGb = 1e9;
}

CheckpointManager::CheckpointManager(const CkptManagerConfig& config, Simulator* sim,
                                     TrainJob* job)
    : config_(config), sim_(sim), job_(job), backup_plan_(SharedBackupPlan(job->topology())) {
  save_latency_ = SaveLatency();  // pure function of the (fixed) job config
  job_->AddStepObserver(this);
}

SimDuration CheckpointManager::SaveLatency() const {
  const double bytes = CheckpointSizeModel::TotalBytesPerRank(job_->config());
  const double d2h_s = bytes / (config_.bandwidths.pcie_gbps * kGb);
  const double ser_s = bytes / (config_.serialize_async_gbps * kGb);
  // D2H, serialization and backup send are pipelined across the dual buffer
  // (Sec. 7), so durability lags by roughly the slower of the two stages plus
  // the D2H itself rather than their strict sum.
  return Seconds(d2h_s + std::max(ser_s, d2h_s));
}

void CheckpointManager::OnRun(const StepRun& run) {
  const std::int64_t every = config_.save_every_steps;
  if (every <= 0) {
    return;
  }
  const std::int64_t last = run.first_step + run.count - 1;
  const SimDuration period = every * run.step_time;  // between save steps
  std::int64_t step = (run.first_step + every - 1) / every * every;
  int streak = 0;  // saves started on consecutive save steps of this run
  while (step <= last) {
    const std::int64_t pending = (last - step) / every;  // save steps after this one
    if (streak >= 2 && save_latency_ <= 2 * period && pending > 0) {
      // Each save completes within two save periods, and the last two save
      // steps both started one, so every save step from here on retires the
      // saves before the previous one and starts its own. Start the
      // `pending` saves before the run's last save step at once: by the
      // drain at that step, only the newest can still be in flight.
      const std::int64_t target = step + pending * every;
      saves_started_ += pending;
      saves_completed_ += static_cast<std::int64_t>(in_flight_.size()) + pending - 1;
      durable_step_ = std::max(durable_step_, target - 2 * every);
      in_flight_.clear();
      in_flight_.push_back(
          {target - every, run.StepEnd(target - every - run.first_step) + save_latency_});
      step = target;
    }
    const SimTime end = run.StepEnd(step - run.first_step);
    DrainCompletedSaves(end);
    // Dual buffer: with two saves already in flight the new one replaces the
    // pending slot only after the oldest completes. Saves complete in FIFO
    // order with fixed latency, so simply cap the queue.
    if (in_flight_.size() >= 2) {
      streak = 0;  // skip this step's save; the next one will catch up
    } else {
      ++saves_started_;
      in_flight_.push_back({step, end + save_latency_});
      ++streak;
    }
    step += every;
  }
}

void CheckpointManager::DrainCompletedSaves(SimTime now) const {
  while (!in_flight_.empty() && in_flight_.front().complete_time <= now) {
    durable_step_ = std::max(durable_step_, in_flight_.front().step);
    ++saves_completed_;
    in_flight_.pop_front();
  }
}

SimDuration CheckpointManager::LoadTime(bool from_remote) const {
  if (from_remote) {
    const double job_bytes = CheckpointSizeModel::TotalJobBytes(job_->config());
    const double s = job_bytes / (config_.remote_load_aggregate_gbps * kGb);
    return config_.remote_load_overhead + Seconds(s);
  }
  const double rank_bytes = CheckpointSizeModel::TotalBytesPerRank(job_->config());
  const double s = rank_bytes / (config_.local_load_gbps_per_rank * kGb);
  return config_.local_load_overhead + Seconds(s);
}

bool CheckpointManager::CanRestoreAfterEviction(const std::vector<MachineId>& machines) const {
  return backup_plan_->SurvivesEviction(job_->topology(), machines);
}

}  // namespace byterobust

#include "src/training/perf_model.h"

#include <algorithm>

namespace byterobust {

double PerfModel::SlowestClockRatio(const Cluster& cluster) {
  // Machines absent from the suspect index are provably nominal (clock ratio
  // 1.0, the identity of min), so the scan over suspects returns exactly what
  // a full serving scan would at O(|suspects|) instead of O(cluster x GPUs).
  double slowest = 1.0;
  for (MachineId id : cluster.SuspectServingMachines()) {
    const Machine& m = cluster.machine(id);
    for (int g = 0; g < m.num_gpus(); ++g) {
      slowest = std::min(slowest, m.gpu(g).clock_ratio);
    }
  }
  return slowest;
}

double PerfModel::CachedSlowestClockRatio(const Cluster& cluster) const {
  if (cached_cluster_ != &cluster || clock_epoch_ != cluster.health_epoch()) {
    cached_slowest_ = SlowestClockRatio(cluster);
    cached_congestion_ = cluster.CongestionFactor();
    cached_cluster_ = &cluster;
    clock_epoch_ = cluster.health_epoch();
    perf_epoch_ = kNoEpoch;  // derived step-time/MFU cache is stale too
  }
  return cached_slowest_;
}

SimDuration PerfModel::StepTime(double code_efficiency, const Cluster& cluster) const {
  const double clock = std::max(CachedSlowestClockRatio(cluster), 1e-3);
  if (perf_epoch_ != clock_epoch_ || perf_efficiency_ != code_efficiency) {
    const double eff = std::max(code_efficiency, 1e-6);
    cached_step_time_ =
        static_cast<SimDuration>(static_cast<double>(config_.base_step_time) / (eff * clock));
    cached_mfu_ = config_.base_mfu * code_efficiency * cached_slowest_;
    if (cached_congestion_ < 1.0) {
      // A fail-slow link crossed by the job's collectives stretches every
      // step (and MFU) by the congestion factor. Guarded so uncongested jobs
      // keep the exact arithmetic without the factor.
      cached_step_time_ = static_cast<SimDuration>(
          static_cast<double>(config_.base_step_time) / (eff * clock * cached_congestion_));
      cached_mfu_ *= cached_congestion_;
    }
    perf_epoch_ = clock_epoch_;
    perf_efficiency_ = code_efficiency;
  }
  return cached_step_time_;
}

double PerfModel::Mfu(double code_efficiency, const Cluster& cluster) const {
  StepTime(code_efficiency, cluster);  // refreshes cached_mfu_ when stale
  return cached_mfu_;
}

}  // namespace byterobust

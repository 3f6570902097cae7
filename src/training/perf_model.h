// Step-time / MFU performance model.
//
// Step duration is synchronous across the whole job (collective communication
// barriers every step), so the slowest serving machine sets the pace: a single
// thermally-throttled GPU drags global MFU down — exactly the gray-failure
// behaviour that makes MFU decline hard to localize (Sec. 5).
//
// The machines×GPUs slowest-clock scan is cached against the cluster's health
// epoch: the training step loop queries StepTime/Mfu every simulated step, but
// cluster health only changes on fault injection / heal / slot swap, so the
// scan reruns once per mutation instead of twice per step.

#ifndef SRC_TRAINING_PERF_MODEL_H_
#define SRC_TRAINING_PERF_MODEL_H_

#include <cstdint>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"
#include "src/training/job_config.h"

namespace byterobust {

class PerfModel {
 public:
  explicit PerfModel(const JobConfig& config) : config_(config) {}

  // Minimum GPU clock ratio across machines currently serving `slots`; 1.0
  // when everything is healthy. Uncached reference scan.
  static double SlowestClockRatio(const Cluster& cluster);

  // Wall time of one training step given the current code efficiency
  // (>= 1.0, raised by hot updates) and cluster health.
  SimDuration StepTime(double code_efficiency, const Cluster& cluster) const;

  // Absolute MFU for the same inputs.
  double Mfu(double code_efficiency, const Cluster& cluster) const;

  const JobConfig& config() const { return config_; }

 private:
  // SlowestClockRatio memoized on (cluster identity, health epoch).
  double CachedSlowestClockRatio(const Cluster& cluster) const;

  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  JobConfig config_;

  mutable const Cluster* cached_cluster_ = nullptr;
  mutable std::uint64_t clock_epoch_ = kNoEpoch;
  mutable double cached_slowest_ = 1.0;
  // Fault-domain congestion term (Cluster::CongestionFactor), refreshed on
  // the same epoch cadence. 1.0 while no impaired domain crosses the job,
  // where the step-time arithmetic must stay bit-identical to the
  // uncongested model.
  mutable double cached_congestion_ = 1.0;
  // StepTime/Mfu additionally key on the code-efficiency input.
  mutable std::uint64_t perf_epoch_ = kNoEpoch;
  mutable double perf_efficiency_ = -1.0;
  mutable SimDuration cached_step_time_ = 0;
  mutable double cached_mfu_ = 0.0;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_PERF_MODEL_H_

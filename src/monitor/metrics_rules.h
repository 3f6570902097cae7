// Training-metric anomaly rules (paper Sec. 4.1 "Metrics collection"):
// NaN values, 5x loss / gradient-norm spikes, sustained MFU decline, and the
// hang watchdog over progress events (zero RDMA traffic proxy).

#ifndef SRC_MONITOR_METRICS_RULES_H_
#define SRC_MONITOR_METRICS_RULES_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/monitor/anomaly.h"
#include "src/training/train_job.h"

namespace byterobust {

struct MetricsRulesConfig {
  // Spike rule: alert when loss or grad norm exceeds `spike_factor` times the
  // trailing-window median.
  double spike_factor = 5.0;
  int trailing_window = 32;

  // MFU-decline rule: alert when MFU stays below `decline_ratio` x the
  // trailing high-water mark for `decline_steps` consecutive steps.
  double decline_ratio = 0.8;
  int decline_steps = 5;
};

class MetricsRules {
 public:
  explicit MetricsRules(const MetricsRulesConfig& config) : config_(config) {}

  // Feeds one completed step; returns an anomaly if a rule fires.
  std::optional<AnomalyReport> OnStep(const StepRecord& record);

  // Leading steps of `next` on which no rule can fire, in closed form:
  //   - NaN: none;
  //   - MFU decline: while MFU sits below the decline ratio, the steps
  //     before the streak reaches decline_steps;
  //   - 5x spike: every step, when the loss curve cannot rise 5x over any
  //     earlier step (LossModel::MaxRiseRatio) and the run lies past every
  //     step in the trailing window; none otherwise.
  std::int64_t QuietSteps(const StepRun& next) const;

  // Absorbs `run` without evaluating it step by step and returns true when
  // every step is quiet; returns false (and changes nothing) otherwise, and
  // the caller feeds the run to OnStep one record at a time.
  bool TryAbsorb(const StepRun& run);

  // Clears history (after a restart or rollback the baselines reset).
  void Reset();

 private:
  // Moves the absorbed steps' losses into the window, so that the window
  // holds exactly what per-step feeding would have put there.
  void MaterializeAbsorbed();
  void ClearWindow();

  // Upper median of the trailing window (the value a copy-and-sort of
  // recent_loss_ would put at index size()/2), served in O(1) from the
  // sorted window below.
  double TrailingMedianLoss() const;

  void MedianInsert(double value);
  void MedianErase(double value);

  MetricsRulesConfig config_;
  std::deque<double> recent_loss_;  // insertion order, for window eviction
  // recent_loss_ kept in sorted order. The window is small (32 by default),
  // so a flat vector with memmove-style insert/erase beats per-node
  // allocating tree structures on the per-step hot path while serving the
  // median as sorted_loss_[size() / 2].
  std::vector<double> sorted_loss_;
  // The newest steps of the window, absorbed by TryAbsorb and kept as step
  // indices [absorbed_first_, absorbed_first_ + absorbed_count_) whose
  // losses are read back from the curve only when a test could fire.
  const LossModel* absorbed_losses_ = nullptr;
  std::int64_t absorbed_first_ = 0;
  std::int64_t absorbed_count_ = 0;
  // Highest step fed since the window was last cleared (-1: none).
  std::int64_t window_max_step_ = -1;
  double mfu_high_water_ = 0.0;
  int decline_run_ = 0;
};

}  // namespace byterobust

#endif  // SRC_MONITOR_METRICS_RULES_H_

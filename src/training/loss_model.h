// Loss-curve model: deterministic power-law decay with seeded noise.
//
// Because the curve is a pure function of (step, seed), a rollback that
// replays steps reproduces bit-identical loss values — the "curve overlap"
// the paper uses to verify engineering changes (Fig. 2, Sec. 2.1).

#ifndef SRC_TRAINING_LOSS_MODEL_H_
#define SRC_TRAINING_LOSS_MODEL_H_

#include <cstdint>

#include "src/training/job_config.h"

namespace byterobust {

class LossModel {
 public:
  LossModel(const JobConfig& config, std::uint64_t seed);

  // Loss at a given global step. Pure function: same step => same value.
  double LossAt(std::int64_t step) const;

  // Gradient norm proxy at a step (used by the monitor's 5x-spike rule).
  double GradNormAt(std::int64_t step) const;

  // Same as GradNormAt for callers that already hold LossAt(step): skips the
  // redundant power-law evaluation on the per-step hot path.
  double GradNormFromLoss(std::int64_t step, double loss) const;

  // Upper bound on LossAt(s) / LossAt(w) over steps s >= w >= 0: the
  // power-law base never rises with the step, and the noise moves a loss by
  // at most a factor 1 +- loss_noise_stddev. Infinity when the configuration
  // gives no such bound (a rising or non-positive curve, or noise >= 1).
  double MaxRiseRatio() const { return max_rise_ratio_; }

 private:
  // Deterministic per-step noise in [-1, 1].
  double NoiseAt(std::int64_t step) const;

  JobConfig config_;
  std::uint64_t seed_;
  double max_rise_ratio_;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_LOSS_MODEL_H_

#include "src/training/loss_model.h"

#include <cmath>
#include <limits>

namespace byterobust {

namespace {
// SplitMix64: cheap stateless hash giving high-quality 64-bit mixing.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

LossModel::LossModel(const JobConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed), max_rise_ratio_(std::numeric_limits<double>::infinity()) {
  const double noise = std::abs(config.loss_noise_stddev);
  if (noise < 1.0 && config.loss_floor > 0.0 && config.loss_initial >= config.loss_floor &&
      config.loss_decay_alpha >= 0.0 && config.loss_decay_steps > 0.0) {
    // The 1e-9 slack covers rounding in pow() and the products above.
    max_rise_ratio_ = (1.0 + noise) / (1.0 - noise) * (1.0 + 1e-9);
  }
}

double LossModel::NoiseAt(std::int64_t step) const {
  const std::uint64_t h = Mix(seed_ ^ static_cast<std::uint64_t>(step) * 0x2545F4914F6CDD1DULL);
  return (static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53)) * 2.0 - 1.0;
}

double LossModel::LossAt(std::int64_t step) const {
  const double s = static_cast<double>(step);
  const double decay = std::pow(1.0 + s / config_.loss_decay_steps, -config_.loss_decay_alpha);
  const double base = config_.loss_floor + (config_.loss_initial - config_.loss_floor) * decay;
  return base * (1.0 + config_.loss_noise_stddev * NoiseAt(step));
}

double LossModel::GradNormAt(std::int64_t step) const {
  return GradNormFromLoss(step, LossAt(step));
}

double LossModel::GradNormFromLoss(std::int64_t step, double loss) const {
  // Gradient norm roughly tracks the loss slope; keep it simple and positive.
  return 0.5 + 0.1 * loss * (1.0 + 0.05 * NoiseAt(step + 1));
}

}  // namespace byterobust

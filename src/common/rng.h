// Deterministic random number generation.
//
// Every stochastic component in the reproduction draws from an Rng that is
// seeded explicitly. Re-running a scenario with the same seed produces a
// bit-identical event trace, which the property tests rely on.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace byterobust {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  // True with probability p.
  bool Bernoulli(double p);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // Binomially distributed count of successes from n trials at probability p.
  int Binomial(int n, double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Weights must be non-negative and not all zero.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  // Derives an independent child generator; used so each subsystem consumes
  // its own stream and does not perturb the others' determinism.
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// Quantile of the Binomial(n, p) distribution: the smallest k such that
// P(X <= k) >= q. Used for P99 warm-standby sizing (paper Sec. 6.2).
int BinomialQuantile(int n, double p, double q);

}  // namespace byterobust

#endif  // SRC_COMMON_RNG_H_

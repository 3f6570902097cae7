#include "src/common/rng.h"

#include <cmath>
#include <stdexcept>

namespace byterobust {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  if (mean <= 0.0) {
    throw std::invalid_argument("Exponential mean must be positive");
  }
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

int Rng::Binomial(int n, double p) {
  if (n <= 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  std::binomial_distribution<int> dist(n, p);
  return dist(engine_);
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("WeightedIndex requires at least one weight");
  }
  std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
  return dist(engine_);
}

Rng Rng::Fork() {
  // Consume one value to derive a decorrelated child seed. The golden-ratio
  // constant breaks up the correlation between parent and child streams.
  const std::uint64_t child_seed = engine_() ^ 0x9E3779B97F4A7C15ULL;
  return Rng(child_seed);
}

int BinomialQuantile(int n, double p, double q) {
  if (n <= 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  // Direct CDF walk. n is the machine count (<= tens of thousands) so the
  // incremental pmf recurrence is both exact enough and fast.
  double pmf = std::pow(1.0 - p, n);  // P(X = 0)
  double cdf = pmf;
  int k = 0;
  while (cdf < q && k < n) {
    // pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)
    pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1) * (p / (1.0 - p));
    cdf += pmf;
    ++k;
  }
  return k;
}

}  // namespace byterobust

// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cstdint>
#include <random>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::tensor {

/// Seeded RNG wrapper. All randomness in the library flows through an Rng so
/// every experiment is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform float in [lo, hi).
  float uniform(float lo = 0.0f, float hi = 1.0f);
  /// Standard normal scaled to N(mean, stddev^2).
  float normal(float mean = 0.0f, float stddev = 1.0f);
  /// Uniform integer in [lo, hi] inclusive.
  index_t randint(index_t lo, index_t hi);
  /// Bernoulli trial with probability p of true.
  bool bernoulli(float p);

  /// Fresh tensor with i.i.d. N(mean, stddev^2) entries.
  Tensor randn(Shape shape, float mean = 0.0f, float stddev = 1.0f);
  /// Fresh tensor with i.i.d. U[lo, hi) entries.
  Tensor rand(Shape shape, float lo = 0.0f, float hi = 1.0f);

  /// Kaiming-He normal init for a weight with `fan_in` inputs.
  Tensor kaiming_normal(Shape shape, index_t fan_in);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace nodetr::tensor

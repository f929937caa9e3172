#include "nodetr/tensor/rng.hpp"

#include <cmath>

namespace nodetr::tensor {

float Rng::uniform(float lo, float hi) {
  std::uniform_real_distribution<float> d(lo, hi);
  return d(engine_);
}

float Rng::normal(float mean, float stddev) {
  std::normal_distribution<float> d(mean, stddev);
  return d(engine_);
}

index_t Rng::randint(index_t lo, index_t hi) {
  std::uniform_int_distribution<index_t> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(float p) {
  std::bernoulli_distribution d(p);
  return d(engine_);
}

Tensor Rng::randn(Shape shape, float mean, float stddev) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> d(mean, stddev);
  for (index_t i = 0; i < t.numel(); ++i) t[i] = d(engine_);
  return t;
}

Tensor Rng::rand(Shape shape, float lo, float hi) {
  Tensor t(std::move(shape));
  std::uniform_real_distribution<float> d(lo, hi);
  for (index_t i = 0; i < t.numel(); ++i) t[i] = d(engine_);
  return t;
}

Tensor Rng::kaiming_normal(Shape shape, index_t fan_in) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(std::max<index_t>(fan_in, 1)));
  return randn(std::move(shape), 0.0f, stddev);
}

}  // namespace nodetr::tensor

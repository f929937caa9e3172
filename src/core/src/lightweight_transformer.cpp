#include "nodetr/core/lightweight_transformer.hpp"

#include <algorithm>
#include <stdexcept>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/train/checkpoint.hpp"

namespace nodetr::core {

namespace nn = nodetr::nn;

LightweightTransformer::LightweightTransformer(Options options) : options_(options) {
  models::OdeNetConfig cfg;
  cfg.image_size = options_.image_size;
  cfg.classes = options_.classes;
  cfg.stem_channels = options_.stem_channels;
  cfg.stage_channels = {options_.stem_channels, options_.stem_channels * 2,
                        options_.stem_channels * 4};
  cfg.steps = options_.solver_steps;
  cfg.final_stage = models::FinalStage::kMhsaOde;
  cfg.mhsa_bottleneck = options_.mhsa_bottleneck;
  cfg.mhsa_heads = options_.mhsa_heads;
  cfg.attention = options_.relu_attention ? models::AttentionKind::kRelu
                                          : models::AttentionKind::kSoftmax;
  nodetr::tensor::Rng rng(options_.seed);
  model_ = std::make_unique<models::OdeNet>(cfg, rng);
}

train::History LightweightTransformer::fit(const std::vector<data::Sample>& train_set,
                                           const std::vector<data::Sample>& test_set,
                                           const train::TrainConfig& config) {
  return train::fit(*model_, train_set, test_set, config);
}

float LightweightTransformer::evaluate(const std::vector<data::Sample>& test_set) {
  return train::evaluate(*model_, test_set);
}

Tensor LightweightTransformer::predict_logits(const Tensor& batch) {
  obs::ScopedSpan span("core.predict_logits");
  const index_t b = batch.dim(0);
  span.attr("batch", b);
  const nn::InferenceScope inference(*model_);
  // An offload hook is caller code that need not be safe to run from two
  // threads at once, so with one installed the batch runs layer by layer.
  nn::MhsaBlock* block = model_->mhsa_block();
  if (b <= 1 || (block != nullptr && block->mhsa().has_forward_override())) {
    return model_->forward(batch);
  }
  // One task per image, each running the whole network, whose ops fall back
  // to serial execution inside the task. An inference forward writes no
  // module state, so the tasks share the model.
  const index_t k = options_.classes;
  Tensor logits(nodetr::tensor::Shape{b, k});
  nodetr::tensor::parallel_for(0, b, [&](index_t lo, index_t hi) {
    for (index_t s = lo; s < hi; ++s) {
      const Tensor row = model_->forward(batch.slice0(s, s + 1));
      std::copy_n(row.data(), k, logits.data() + s * k);
    }
  }, /*grain=*/1);
  return logits;
}

index_t LightweightTransformer::predict(const Tensor& image) {
  if (image.rank() != 3) {
    throw std::invalid_argument("LightweightTransformer::predict: expected (3, S, S)");
  }
  Tensor batch = image.reshape(
      nodetr::tensor::Shape{1, image.dim(0), image.dim(1), image.dim(2)});
  Tensor logits = predict_logits(batch);
  return nodetr::tensor::argmax(logits);
}

std::unique_ptr<rt::OffloadedModel> LightweightTransformer::offload(
    hls::DataType dtype, fx::QuantizationScheme scheme) {
  return std::make_unique<rt::OffloadedModel>(*model_, dtype, scheme);
}

hls::MhsaDesignPoint LightweightTransformer::design_point(hls::DataType dtype) const {
  return hls::MhsaDesignPoint::from_config(model_->mhsa_block()->mhsa().config(), dtype);
}

hls::ResourceUsage LightweightTransformer::estimate_resources(hls::DataType dtype) const {
  return hls::ResourceModel{}.estimate(design_point(dtype));
}

double LightweightTransformer::estimate_ip_watts(hls::DataType dtype) const {
  return hls::PowerModel{}.ip_watts(estimate_resources(dtype));
}

void LightweightTransformer::save(const std::string& path) {
  train::save_checkpoint(path, *model_);
}

void LightweightTransformer::load(const std::string& path) {
  train::load_checkpoint(path, *model_);
}

index_t LightweightTransformer::num_parameters() { return model_->num_parameters(); }

}  // namespace nodetr::core

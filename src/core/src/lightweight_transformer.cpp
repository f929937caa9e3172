#include "nodetr/core/lightweight_transformer.hpp"

#include <stdexcept>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
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
  span.attr("batch", batch.dim(0));
  const nn::InferenceScope inference(*model_);
  return model_->forward(batch);
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

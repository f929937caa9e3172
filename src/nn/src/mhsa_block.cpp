#include "nodetr/nn/mhsa_block.hpp"

#include "nodetr/nn/sequential.hpp"
#include "nodetr/obs/obs.hpp"

namespace nodetr::nn {

MhsaBlock::MhsaBlock(MhsaBlockConfig config, Rng& rng) : config_(config) {
  bn_in_ = std::make_unique<BatchNorm2d>(config.channels);
  relu_in_ = std::make_unique<ReLU>();
  reduce_ = std::make_unique<Conv2d>(config.channels, config.bottleneck_dim, 1, 1, 0,
                                     /*bias=*/false, rng);
  bn_mid_ = std::make_unique<BatchNorm2d>(config.bottleneck_dim);
  relu_mid_ = std::make_unique<ReLU>();
  MhsaConfig mc{.dim = config.bottleneck_dim,
                .heads = config.heads,
                .height = config.height,
                .width = config.width,
                .attention = config.attention,
                .pos = config.pos,
                .layer_norm_out = config.layer_norm_out};
  mhsa_ = std::make_unique<MultiHeadSelfAttention>(mc, rng);
  expand_ = std::make_unique<Conv2d>(config.bottleneck_dim, config.channels, 1, 1, 0,
                                     /*bias=*/false, rng);
  chain_ = {bn_in_.get(), relu_in_.get(), reduce_.get(), bn_mid_.get(),
            relu_mid_.get(), mhsa_.get(), expand_.get()};
}

Tensor MhsaBlock::forward(const Tensor& x) {
  begin_forward();
  NODETR_TRACE_SCOPE("mhsa.block");
  return forward_chain(chain_, x);
}

Tensor MhsaBlock::backward(const Tensor& grad_out) {
  require_backward_state();
  return backward_chain(chain_, grad_out);
}

std::string MhsaBlock::name() const {
  return "MhsaBlock(C=" + std::to_string(config_.channels) +
         ",Dm=" + std::to_string(config_.bottleneck_dim) + ")";
}

}  // namespace nodetr::nn

#include "nodetr/nn/mhsa_block.hpp"

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
}

namespace {

/// BN then ReLU. Under inference this is one BatchNorm2d::eval_into pass
/// into `out` (which may alias `x`), as Sequential runs the pair; otherwise
/// the two recording forwards.
void bn_relu(BatchNorm2d& bn, ReLU& relu, const Tensor& x, Tensor& out) {
  if (bn.training() || bn.recording() || relu.recording()) {
    out = relu.forward(bn.forward(x));
    return;
  }
  if (&out != &x) out = Tensor(x.shape());
  bn.eval_into(x, out, /*relu=*/true);
}

}  // namespace

Tensor MhsaBlock::forward(const Tensor& x) {
  begin_forward();
  NODETR_TRACE_SCOPE("mhsa.block");
  obs::ScopedSpan pre("mhsa.block.bottleneck_in");
  Tensor h;
  bn_relu(*bn_in_, *relu_in_, x, h);
  h = reduce_->forward(h);
  bn_relu(*bn_mid_, *relu_mid_, h, h);
  pre.end();
  h = mhsa_->forward(h);
  NODETR_TRACE_SCOPE("mhsa.block.expand");
  return expand_->forward(h);
}

Tensor MhsaBlock::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor g = expand_->backward(grad_out);
  g = mhsa_->backward(g);
  g = relu_mid_->backward(g);
  g = bn_mid_->backward(g);
  g = reduce_->backward(g);
  g = relu_in_->backward(g);
  return bn_in_->backward(g);
}

std::string MhsaBlock::name() const {
  return "MhsaBlock(C=" + std::to_string(config_.channels) +
         ",Dm=" + std::to_string(config_.bottleneck_dim) + ")";
}

std::vector<Module*> MhsaBlock::children() {
  return {bn_in_.get(), relu_in_.get(), reduce_.get(), bn_mid_.get(),
          relu_mid_.get(), mhsa_.get(), expand_.get()};
}

}  // namespace nodetr::nn

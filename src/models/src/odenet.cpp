#include "nodetr/models/odenet.hpp"

#include <stdexcept>

namespace nodetr::models {

namespace {

/// The dsODENet conv dynamics: BN -> ReLU -> DSC -> BN -> ReLU -> DSC.
ModulePtr conv_dynamics(index_t channels, Rng& rng) {
  auto f = std::make_unique<Sequential>();
  f->emplace<BatchNorm2d>(channels);
  f->emplace<ReLU>();
  f->emplace<DepthwiseSeparableConv>(channels, channels, 3, 1, 1, rng);
  f->emplace<BatchNorm2d>(channels);
  f->emplace<ReLU>();
  f->emplace<DepthwiseSeparableConv>(channels, channels, 3, 1, 1, rng);
  return f;
}

/// Downsampling layer [21]: halves H/W, doubles channels. Implemented as a
/// residual block (3x3/2 conv body, 1x1/2 conv skip) so gradients flow well
/// through the strided boundary.
ModulePtr downsample(index_t in_channels, index_t out_channels, Rng& rng) {
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2d>(in_channels, out_channels, 3, 2, 1, /*bias=*/false, rng);
  body->emplace<BatchNorm2d>(out_channels);
  auto skip = std::make_unique<Sequential>();
  skip->emplace<Conv2d>(in_channels, out_channels, 1, 2, 0, /*bias=*/false, rng);
  skip->emplace<BatchNorm2d>(out_channels);
  return std::make_unique<Residual>(std::move(body), std::move(skip), /*final_relu=*/true);
}

}  // namespace

OdeNet::OdeNet(OdeNetConfig config, Rng& rng) : config_(config) {
  if (config_.image_size % 16 != 0) {
    throw std::invalid_argument("OdeNet: image_size must be divisible by 16");
  }
  auto net = std::make_unique<Sequential>();
  // Stem: /4 total.
  net->emplace<Conv2d>(3, config_.stem_channels, 3, 2, 1, /*bias=*/false, rng);
  net->emplace<BatchNorm2d>(config_.stem_channels);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(3, 2, 1);

  index_t channels = config_.stem_channels;
  index_t spatial = config_.image_size / 4;
  if (channels != config_.stage_channels[0]) {
    throw std::invalid_argument("OdeNet: stem_channels must equal stage_channels[0]");
  }

  for (int stage = 0; stage < 3; ++stage) {
    if (stage > 0) {
      net->push_back(downsample(channels, config_.stage_channels[static_cast<std::size_t>(stage)],
                                rng));
      channels = config_.stage_channels[static_cast<std::size_t>(stage)];
      spatial /= 2;
    }
    ModulePtr dynamics;
    if (stage == 2 && config_.final_stage == FinalStage::kMhsaOde) {
      MhsaBlockConfig mc{.channels = channels,
                         .bottleneck_dim = config_.mhsa_bottleneck,
                         .heads = config_.mhsa_heads,
                         .height = spatial,
                         .width = spatial,
                         .attention = config_.attention,
                         .pos = config_.pos};
      auto block = std::make_unique<MhsaBlock>(mc, rng);
      mhsa_block_ = block.get();
      dynamics = std::move(block);
    } else {
      dynamics = conv_dynamics(channels, rng);
    }
    auto ob = std::make_unique<OdeBlock>(std::move(dynamics), config_.steps);
    ode_blocks_.push_back(ob.get());
    net->push_back(std::move(ob));
  }
  final_spatial_ = spatial;

  net->emplace<BatchNorm2d>(channels);
  net->emplace<ReLU>();
  net->emplace<GlobalAvgPool>();
  net->emplace<Linear>(channels, config_.classes, /*bias=*/true, rng);
  net_ = std::move(net);
}

Tensor OdeNet::features(const Tensor& x) {
  // Forward through every stage except the classification head.
  auto mods = net_->children();
  Tensor h = x;
  for (std::size_t i = 0; i + 1 < mods.size(); ++i) h = mods[i]->forward(h);
  return h;
}

std::string OdeNet::name() const {
  return config_.final_stage == FinalStage::kMhsaOde ? "ProposedModel" : "OdeNet";
}

std::unique_ptr<OdeNet> odenet(index_t image_size, index_t classes, Rng& rng, index_t steps) {
  OdeNetConfig cfg;
  cfg.image_size = image_size;
  cfg.classes = classes;
  cfg.steps = steps;
  return std::make_unique<OdeNet>(cfg, rng);
}

std::unique_ptr<OdeNet> proposed_model(index_t image_size, index_t classes, Rng& rng,
                                       index_t steps) {
  OdeNetConfig cfg;
  cfg.image_size = image_size;
  cfg.classes = classes;
  cfg.steps = steps;
  cfg.final_stage = FinalStage::kMhsaOde;
  return std::make_unique<OdeNet>(cfg, rng);
}

}  // namespace nodetr::models

#include "nodetr/hls/layer_plan.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nodetr/nn/nn.hpp"
#include "nodetr/ode/ode_block.hpp"

namespace nodetr::hls {

namespace nn = nodetr::nn;
namespace ode = nodetr::ode;

const char* to_string(OpKind kind) {
  static constexpr const char* kNames[] = {"conv", "dsc",  "bn",       "relu", "maxpool", "gap",
                                           "fc",   "mhsa", "residual", "euler"};
  return kNames[static_cast<int>(kind)];
}

namespace {

/// (B, channels, H', W') of a windowed op with geometry `g` over NCHW `in`.
Shape windowed(const Shape& in, index_t channels, const Conv2dGeom& g) {
  if (in.rank() != 4) throw std::invalid_argument("LayerPlan: expected an NCHW input");
  return Shape{in.dim(0), channels, g.out_extent(in.dim(2)), g.out_extent(in.dim(3))};
}

/// Appends the ops of `m`, at module path `path`, for inputs of shape `in`;
/// returns the output shape.
Shape lower_module(LayerPlan& plan, nn::Module& m, const std::string& path, const Shape& in) {
  auto q = [&](const Tensor& t) { return fx::FixedTensor::from_float(t, plan.scheme.param); };
  auto child = [&](std::size_t i) {
    return path.empty() ? std::to_string(i) : path + "." + std::to_string(i);
  };
  auto emit = [&](OpKind kind, const Shape& out) -> PlanOp& {
    PlanOp& op = plan.ops.emplace_back();
    op.kind = kind;
    op.path = path;
    op.in = in;
    op.out = out;
    return op;
  };

  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
    PlanOp& op = emit(OpKind::kConv, windowed(in, conv->geom().out_channels, conv->geom()));
    op.geom = conv->geom();
    op.weight = q(conv->weight().value);
    if (conv->has_bias()) op.bias = q(conv->bias().value);
    return op.out;
  }
  if (auto* dsc = dynamic_cast<nn::DepthwiseSeparableConv*>(&m)) {
    const Shape mid = windowed(in, dsc->dw_geom().out_channels, dsc->dw_geom());
    PlanOp& op = emit(OpKind::kDsc, windowed(mid, dsc->pw_geom().out_channels, dsc->pw_geom()));
    op.geom = dsc->dw_geom();
    op.pw_geom = dsc->pw_geom();
    op.weight = q(dsc->dw_weight().value);
    op.pw_weight = q(dsc->pw_weight().value);
    return op.out;
  }
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    // Inference BN as y = scale * x + shift per channel.
    const auto& mean = bn->running_mean();
    const auto& var = bn->running_var();
    Tensor scale(Shape{mean.numel()}), shift(Shape{mean.numel()});
    for (index_t c = 0; c < mean.numel(); ++c) {
      const float istd = 1.0f / std::sqrt(var[c] + bn->eps());
      scale[c] = bn->gamma().value[c] * istd;
      shift[c] = bn->beta().value[c] - mean[c] * scale[c];
    }
    PlanOp& op = emit(OpKind::kScaleShift, in);
    op.weight = q(scale);
    op.bias = q(shift);
    return in;
  }
  if (dynamic_cast<nn::ReLU*>(&m) != nullptr) return emit(OpKind::kRelu, in).out;
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&m)) {
    const Conv2dGeom g{.kernel = pool->kernel(), .stride = pool->stride(), .pad = pool->pad()};
    PlanOp& op = emit(OpKind::kMaxPool, windowed(in, in.dim(1), g));
    op.geom = g;
    return op.out;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
    return emit(OpKind::kGlobalAvgPool, Shape{in.dim(0), in.dim(1)}).out;
  }
  if (auto* lin = dynamic_cast<nn::Linear*>(&m)) {
    std::vector<index_t> dims = in.dims();
    dims.back() = lin->out_features();
    PlanOp& op = emit(OpKind::kLinear, Shape(dims));
    op.weight = q(lin->weight().value);
    if (lin->has_bias()) op.bias = q(lin->bias().value);
    return op.out;
  }
  if (auto* mhsa = dynamic_cast<nn::MultiHeadSelfAttention*>(&m)) {
    const nn::MhsaConfig& mc = mhsa->config();
    if (mc.attention != nn::AttentionKind::kRelu) {
      throw std::invalid_argument("LayerPlan: the fixed MHSA datapath implements ReLU "
                                  "attention only (the paper's Eq. 16)");
    }
    // The executor reads an NCHW map; a (B, N, D) sequence would be misread.
    if (in.rank() != 4 || in.dim(1) != mc.dim || in.dim(2) != mc.height ||
        in.dim(3) != mc.width) {
      throw std::invalid_argument("LayerPlan: the fixed MHSA datapath takes an NCHW (B, " +
                                  std::to_string(mc.dim) + ", " + std::to_string(mc.height) +
                                  ", " + std::to_string(mc.width) + ") feature map, got " +
                                  in.to_string());
    }
    emit(OpKind::kMhsa, in).mhsa = std::make_shared<const MhsaIpCore>(
        MhsaDesignPoint::from_config(mc, DataType::kFixed, plan.scheme),
        MhsaWeights::from_module(*mhsa));
    return in;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&m)) {
    const std::size_t self = plan.ops.size();
    emit(OpKind::kResidual, in).relu = res->final_relu();
    const Shape out = lower_module(plan, res->body(), child(0), in);
    const std::size_t body = plan.ops.size() - self - 1;
    if (res->skip() != nullptr) (void)lower_module(plan, *res->skip(), child(1), in);
    PlanOp& op = plan.ops[self];
    op.body = body;
    op.skip = plan.ops.size() - self - 1 - body;
    op.out = out;
    return out;
  }
  if (auto* ob = dynamic_cast<ode::OdeBlock*>(&m)) {
    if (ob->solver_kind() != ode::SolverKind::kEuler) {
      throw std::invalid_argument("LayerPlan: only Euler OdeBlocks have a fixed datapath");
    }
    const std::size_t self = plan.ops.size();
    emit(OpKind::kOde, in);
    (void)lower_module(plan, ob->dynamics(), child(0), in);
    PlanOp& op = plan.ops[self];
    op.body = plan.ops.size() - self - 1;
    op.steps = ob->steps();
    op.h = (ob->t1() - ob->t0()) / static_cast<float>(ob->steps());
    return in;
  }
  if (dynamic_cast<nn::Dropout*>(&m) != nullptr) return in;  // identity at inference
  // Containers run their children in order: Sequential, MhsaBlock, and
  // transparent wrappers (one child, no parameters of their own).
  if (dynamic_cast<nn::Sequential*>(&m) != nullptr || dynamic_cast<nn::MhsaBlock*>(&m) ||
      (m.children().size() == 1 && m.local_parameters().empty())) {
    Shape shape = in;
    const auto kids = m.children();
    for (std::size_t i = 0; i < kids.size(); ++i) {
      shape = lower_module(plan, *kids[i], child(i), shape);
    }
    return shape;
  }
  throw std::invalid_argument("LayerPlan: no fixed-point implementation for " + m.name());
}

}  // namespace

LayerPlan LayerPlan::lower(nn::Module& root, const Shape& input,
                           const fx::QuantizationScheme& scheme) {
  LayerPlan plan{.scheme = scheme, .ops = {}};
  (void)lower_module(plan, root, "", input);
  return plan;
}

}  // namespace nodetr::hls

#include "nodetr/hls/qexec.hpp"

#include "nodetr/fx/qconv.hpp"
#include "nodetr/hls/layer_plan.hpp"

namespace nodetr::hls {

namespace {

/// (B, D, H, W) -> per-image token matrices through the IP datapath.
fx::FixedTensor run_mhsa(const MhsaIpCore& ip, const fx::FixedTensor& x) {
  const auto& p = ip.point();
  const index_t b = x.shape().dim(0), d = p.dim, n = p.tokens();
  fx::FixedTensor out(x.shape(), x.format());
  for (index_t s = 0; s < b; ++s) {
    fx::FixedTensor tokens(Shape{n, d}, x.format());
    for (index_t t = 0; t < n; ++t) {
      const index_t y = t / p.width, xx = t % p.width;
      for (index_t c = 0; c < d; ++c) {
        tokens[t * d + c] = x[((s * d + c) * p.height + y) * p.width + xx];
      }
    }
    fx::FixedTensor o = ip.run_fixed_tokens(tokens);
    for (index_t t = 0; t < n; ++t) {
      const index_t y = t / p.width, xx = t % p.width;
      for (index_t c = 0; c < d; ++c) {
        out[((s * d + c) * p.height + y) * p.width + xx] = o[t * d + c];
      }
    }
  }
  return out;
}

/// LayerNorm over the last axis, through qlayernorm_rows' rank-2 view.
fx::FixedTensor run_layer_norm(const PlanOp& op, const fx::FixedTensor& x) {
  const index_t dim = op.weight.numel();
  fx::FixedTensor view(Shape{x.numel() / dim, dim}, x.format());
  for (index_t i = 0; i < x.numel(); ++i) view[i] = x[i];
  const fx::FixedTensor normed = fx::qlayernorm_rows(view, op.weight, op.bias, op.eps);
  fx::FixedTensor out(x.shape(), x.format());
  for (index_t i = 0; i < x.numel(); ++i) out[i] = normed[i];
  return out;
}

/// Runs ops [first, last) of `plan` on `x`.
fx::FixedTensor run_span(const LayerPlan& plan, std::size_t first, std::size_t last,
                         fx::FixedTensor x) {
  const auto ff = plan.scheme.feature;
  for (std::size_t i = first; i < last; i = plan.ops[i].end(i)) {
    const PlanOp& op = plan.ops[i];
    switch (op.kind) {
      case OpKind::kConv: x = fx::qconv2d(x, op.weight, op.bias, op.geom, ff); break;
      case OpKind::kDsc:
        x = fx::qconv2d(fx::qdepthwise_conv2d(x, op.weight, op.geom, ff), op.pw_weight, {},
                        op.pw_geom, ff);
        break;
      case OpKind::kScaleShift: x = fx::qscale_shift_channels(x, op.weight, op.bias); break;
      case OpKind::kRelu: x = fx::qrelu(x); break;
      case OpKind::kMaxPool: x = fx::qmax_pool(x, op.geom.kernel, op.geom.stride, op.geom.pad); break;
      case OpKind::kGlobalAvgPool: x = fx::qglobal_avg_pool(x); break;
      case OpKind::kLinear: x = fx::qlinear(x, op.weight, op.bias, ff); break;
      case OpKind::kLayerNorm: x = run_layer_norm(op, x); break;
      case OpKind::kMhsa: x = run_mhsa(*op.mhsa, x); break;
      case OpKind::kResidual: {
        const std::size_t skip = i + 1 + op.body;
        fx::FixedTensor sum = fx::qadd(run_span(plan, i + 1, skip, x),
                                       op.skip > 0 ? run_span(plan, skip, op.end(i), x) : x);
        x = op.relu ? fx::qrelu(sum) : sum;
        break;
      }
      case OpKind::kOde:
        for (index_t s = 0; s < op.steps; ++s) {
          x = fx::qadd(x, fx::qscale(run_span(plan, i + 1, op.end(i), x), op.h));
        }
        break;
    }
  }
  return x;
}

}  // namespace

Tensor QuantizedExecutor::run(nodetr::nn::Module& model, const Tensor& input) {
  return run_fixed(model, fx::FixedTensor::from_float(input, scheme_.feature)).to_float();
}

fx::FixedTensor QuantizedExecutor::run_fixed(nodetr::nn::Module& model,
                                             const fx::FixedTensor& x) {
  const LayerPlan plan = LayerPlan::lower(model, x.shape(), scheme_);
  return run_span(plan, 0, plan.ops.size(), x);
}

}  // namespace nodetr::hls

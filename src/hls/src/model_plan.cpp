#include "nodetr/hls/model_plan.hpp"

#include <algorithm>
#include <cmath>

#include "nodetr/hls/layer_plan.hpp"
#include "nodetr/models/odenet.hpp"

namespace nodetr::hls {

namespace {
// Fixed-point MAC pipeline cost of the unrolled projection engine,
// calibrated in cycle_model.cpp (Table III): 17.02 cycles/MAC sequential,
// divided by the unroll factor when parallelized, plus fill overhead.
constexpr double kMacCycles = 40158722.0 / (9 * 512.0 * 512.0);
constexpr double kFillOverhead = 2267.0;
constexpr double kElemCycles = 1.1;  // pipelined elementwise op incl. streaming
}  // namespace

std::int64_t ConvCycleModel::mac_cycles(std::int64_t macs) const {
  if (unroll_ <= 1) return static_cast<std::int64_t>(macs * kMacCycles);
  return static_cast<std::int64_t>(
      std::ceil(static_cast<double>(macs) / static_cast<double>(unroll_)) * kMacCycles +
      kFillOverhead);
}

LayerCost ConvCycleModel::conv2d(const std::string& name, index_t cin, index_t cout,
                                 index_t kernel, index_t out_h, index_t out_w) const {
  LayerCost c;
  c.name = name;
  c.macs = cin * cout * kernel * kernel * out_h * out_w;
  c.cycles = mac_cycles(c.macs);
  return c;
}

LayerCost ConvCycleModel::depthwise_separable(const std::string& name, index_t cin, index_t cout,
                                              index_t kernel, index_t out_h,
                                              index_t out_w) const {
  LayerCost c;
  c.name = name;
  // Depthwise K^2 per channel plus 1x1 pointwise mix.
  c.macs = (cin * kernel * kernel + cin * cout) * out_h * out_w;
  c.cycles = mac_cycles(c.macs);
  return c;
}

LayerCost ConvCycleModel::elementwise(const std::string& name, index_t elems) const {
  LayerCost c;
  c.name = name;
  c.macs = 0;
  c.cycles = static_cast<std::int64_t>(elems * kElemCycles);
  return c;
}

LayerCost ConvCycleModel::linear(const std::string& name, index_t in, index_t out) const {
  LayerCost c;
  c.name = name;
  c.macs = in * out;
  c.cycles = mac_cycles(c.macs);
  return c;
}

std::int64_t ProposedModelPlan::total_cycles() const {
  std::int64_t t = 0;
  for (const auto& l : layers) t += l.cycles;
  return t + mhsa_cycles();
}

namespace {

/// Appends the rows of plan ops [first, last); `step` names the enclosing
/// Euler step, if any.
void price_span(const LayerPlan& lp, std::size_t first, std::size_t last,
                const std::string& stage, const std::string& step, const ConvCycleModel& conv,
                index_t unroll, ProposedModelPlan& plan) {
  for (std::size_t i = first; i < last; i = lp.ops[i].end(i)) {
    const PlanOp& op = lp.ops[i];
    const std::string name = stage + " " + to_string(op.kind) + " " + op.path;
    const auto& g = op.geom;
    switch (op.kind) {
      case OpKind::kConv:
        plan.layers.push_back(conv.conv2d(name + step, g.in_channels, g.out_channels, g.kernel,
                                          op.out.dim(2), op.out.dim(3)));
        break;
      case OpKind::kDsc:
        plan.layers.push_back(conv.depthwise_separable(name + step, g.in_channels,
                                                       op.pw_geom.out_channels, g.kernel,
                                                       op.out.dim(2), op.out.dim(3)));
        break;
      case OpKind::kLinear:
        plan.layers.push_back(conv.linear(name + step, op.in.dim(-1), op.out.dim(-1)));
        break;
      case OpKind::kMhsa: {
        // The proposed model's MHSA ends in Eq. 17's LayerNorm.
        MhsaDesignPoint point = op.mhsa->point();
        point.parallel.unroll = unroll;
        plan.mhsa = CycleModel{}.estimate(point, /*include_layer_norm=*/true);
        ++plan.solver_steps;
        break;
      }
      case OpKind::kResidual:  // body and skip spans, then the add
        price_span(lp, i + 1, op.end(i), stage, step, conv, unroll, plan);
        plan.layers.push_back(conv.elementwise(name + step, op.out.numel()));
        break;
      case OpKind::kOde:
        for (index_t s = 0; s < op.steps; ++s) {
          const std::string at = step + " (step " + std::to_string(s) + ")";
          price_span(lp, i + 1, op.end(i), stage, at, conv, unroll, plan);
          plan.layers.push_back(conv.elementwise(name + at, op.in.numel()));
        }
        break;
      default:
        plan.layers.push_back(conv.elementwise(name + step, op.in.numel()));
    }
  }
}

}  // namespace

ProposedModelPlan plan_proposed_model(index_t image_size, index_t solver_steps, index_t unroll) {
  nodetr::tensor::Rng rng(0);
  auto model = models::proposed_model(image_size, /*classes=*/10, rng, solver_steps);
  const LayerPlan lp =
      LayerPlan::lower(*model, Shape{1, 3, image_size, image_size}, fx::scheme_32_24());
  const ConvCycleModel conv(unroll);
  ProposedModelPlan plan;
  // Stages in model order: the ops before the first block form the stem,
  // residuals are the downsampling layers, and the ops after the blocks the
  // head.
  bool past_stem = false;
  int conv_odes = 0;
  for (std::size_t i = 0; i < lp.ops.size(); i = lp.ops[i].end(i)) {
    const PlanOp& op = lp.ops[i];
    std::string stage = past_stem ? "head" : "stem";
    if (op.kind == OpKind::kResidual) stage = "downsample";
    if (op.kind == OpKind::kOde) {
      const bool attention =
          std::any_of(lp.ops.begin() + static_cast<std::ptrdiff_t>(i),
                      lp.ops.begin() + static_cast<std::ptrdiff_t>(op.end(i)),
                      [](const PlanOp& o) { return o.kind == OpKind::kMhsa; });
      stage = attention ? "mhsa" : "ode" + std::to_string(++conv_odes);
    }
    past_stem = past_stem || op.kind == OpKind::kResidual || op.kind == OpKind::kOde;
    price_span(lp, i, op.end(i), stage, "", conv, unroll, plan);
  }
  return plan;
}

}  // namespace nodetr::hls

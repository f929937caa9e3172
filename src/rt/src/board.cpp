#include "nodetr/rt/board.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "nodetr/obs/obs.hpp"

namespace nodetr::rt {

namespace {
double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

TimingStats summarize(const std::vector<double>& samples_ms) {
  TimingStats s;
  if (samples_ms.empty()) return s;
  double sum = 0.0, mx = 0.0;
  for (double v : samples_ms) {
    sum += v;
    mx = std::max(mx, v);
  }
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  s.max_ms = mx;
  double var = 0.0;
  for (double v : samples_ms) var += (v - s.mean_ms) * (v - s.mean_ms);
  s.stddev_ms = std::sqrt(var / static_cast<double>(samples_ms.size()));
  return s;
}

OffloadedModel::OffloadedModel(models::OdeNet& model, hls::DataType dtype,
                               fx::QuantizationScheme scheme)
    : model_(model) {
  auto* block = model_.mhsa_block();
  if (block == nullptr) {
    throw std::invalid_argument("OffloadedModel: model has no MHSABlock (not a proposed model)");
  }
  auto& mhsa = block->mhsa();
  const auto& mc = mhsa.config();
  hls::MhsaDesignPoint point;
  point.dim = mc.dim;
  point.height = mc.height;
  point.width = mc.width;
  point.heads = mc.heads;
  point.dtype = dtype;
  point.scheme = scheme;
  auto ip = std::make_unique<hls::MhsaIpCore>(point, hls::MhsaWeights::from_module(mhsa));
  accel_ = std::make_unique<MhsaAccelerator>(std::move(ip), ddr_);

  mhsa.set_forward_override(
      [this](const Tensor& x, nodetr::nn::MultiHeadSelfAttention&) {
        const double t0 = now_ms();
        Tensor y = accel_->execute(x);
        override_wall_ms_ += now_ms() - t0;
        timing_.pl_ms += accel_->last_ms();
        return y;
      });
}

OffloadedModel::~OffloadedModel() {
  if (auto* block = model_.mhsa_block()) block->mhsa().clear_forward_override();
}

Tensor OffloadedModel::forward(const Tensor& batch) {
  obs::ScopedSpan span("rt.offload.forward");
  // Offload is inference: BatchNorm must normalise with its running
  // statistics and leave them unchanged, whatever mode the caller left the
  // model in, and no layer records backward state.
  const nodetr::nn::InferenceScope inference(model_);
  timing_ = InferenceTiming{};
  override_wall_ms_ = 0.0;
  const double t0 = now_ms();
  Tensor out = model_.forward(batch);
  const double wall = now_ms() - t0;
  timing_.ps_ms = std::max(wall - override_wall_ms_, 0.0);
  span.attr("ps_ms", timing_.ps_ms);
  span.attr("pl_ms", timing_.pl_ms);
  return out;
}

double timed_cpu_inference_ms(nodetr::nn::Module& model, const Tensor& batch) {
  const nodetr::nn::InferenceScope inference(model);
  const double t0 = now_ms();
  (void)model.forward(batch);
  return now_ms() - t0;
}

}  // namespace nodetr::rt

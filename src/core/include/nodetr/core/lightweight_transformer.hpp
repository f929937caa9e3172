// LightweightTransformer: the library's top-level API — the paper's proposed
// Neural-ODE + BoTNet hybrid, packaged for a downstream user: build, train,
// evaluate, quantize, estimate FPGA cost, and run with the simulated MHSA
// accelerator.
#pragma once

#include <memory>
#include <string>

#include "nodetr/data/synth_stl.hpp"
#include "nodetr/hls/power.hpp"
#include "nodetr/hls/resources.hpp"
#include "nodetr/models/odenet.hpp"
#include "nodetr/rt/board.hpp"
#include "nodetr/train/trainer.hpp"

namespace nodetr::core {

using nodetr::tensor::index_t;
using nodetr::tensor::Tensor;

struct Options {
  index_t image_size = 96;  ///< must be divisible by 16
  index_t classes = 10;
  index_t solver_steps = 6;        ///< C: Euler iterations per ODEBlock
  index_t stem_channels = 64;      ///< stage widths are stem, 2x, 4x
  index_t mhsa_bottleneck = 64;    ///< attention width Dm
  index_t mhsa_heads = 4;
  bool relu_attention = true;      ///< Eq. 16 (false: softmax)
  std::uint64_t seed = 0xb07;
};

class LightweightTransformer {
 public:
  explicit LightweightTransformer(Options options = {});

  // ---- training & evaluation ------------------------------------------------

  /// Train with the paper's recipe (SGD + momentum, cosine warm restarts,
  /// flip/jitter/erase augmentation). Returns the per-epoch history.
  train::History fit(const std::vector<data::Sample>& train_set,
                     const std::vector<data::Sample>& test_set,
                     const train::TrainConfig& config);

  /// Top-1 accuracy in eval mode.
  [[nodiscard]] float evaluate(const std::vector<data::Sample>& test_set);

  // ---- inference ------------------------------------------------------------

  /// Logits for a batch (B, 3, S, S), run under an nn::InferenceScope: eval
  /// mode, no backward state recorded, the model's mode restored afterwards.
  /// Above batch 1 the images split across the global pool, each run whole
  /// on one thread, so row i is bitwise the batch-1 logits of image i; batch
  /// 1, or a model whose MHSA is offloaded, runs each op across the pool.
  /// An error from any image is rethrown here.
  [[nodiscard]] Tensor predict_logits(const Tensor& batch);
  /// Predicted class of one image (3, S, S).
  [[nodiscard]] index_t predict(const Tensor& image);

  /// Route the MHSA through the simulated FPGA accelerator. The returned
  /// session owns the offload; destroy it to restore software execution.
  [[nodiscard]] std::unique_ptr<rt::OffloadedModel> offload(
      hls::DataType dtype, fx::QuantizationScheme scheme = fx::scheme_32_24());

  // ---- deployment estimation --------------------------------------------------

  /// FPGA resources of this model's MHSA IP at its design point.
  [[nodiscard]] hls::ResourceUsage estimate_resources(hls::DataType dtype) const;
  /// IP power draw at that design point.
  [[nodiscard]] double estimate_ip_watts(hls::DataType dtype) const;
  /// The accelerator design point implied by the model configuration.
  [[nodiscard]] hls::MhsaDesignPoint design_point(hls::DataType dtype) const;

  // ---- persistence & introspection --------------------------------------------

  void save(const std::string& path);
  void load(const std::string& path);
  [[nodiscard]] index_t num_parameters();
  [[nodiscard]] models::OdeNet& model() { return *model_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
  std::unique_ptr<models::OdeNet> model_;
};

}  // namespace nodetr::core

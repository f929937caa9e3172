// Reproduces Figs. 9-10: mean and maximum difference of the values entering
// the final FC layer between the software (float) implementation and the
// FPGA (fixed-point) implementation, per quantization scheme.
#include "common.hpp"
#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/hls/qexec.hpp"
#include "nodetr/tensor/ops.hpp"

namespace core = nodetr::core;
namespace d = nodetr::data;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;
using nodetr::bench::header;

int main() {
  header("Figs. 9-10", "Mean/max difference of final-FC inputs, software vs FPGA");
  core::Options opts;
  opts.image_size = 32;
  opts.stem_channels = 16;
  opts.mhsa_bottleneck = 16;
  opts.mhsa_heads = 2;
  opts.solver_steps = 3;
  core::LightweightTransformer model(opts);
  model.model().train(false);

  d::SynthStl ds({.image_size = 32, .train_per_class = 1, .test_per_class = 4, .seed = 0xf9});
  auto batch = d::stack(ds.test(), 0, static_cast<nt::index_t>(ds.test().size()));
  const auto reference = model.model().features(batch.images);

  // Every layer but the final FC: the FC inputs.
  auto layers = model.model().children().at(0)->children();
  layers.pop_back();

  std::printf("  %-14s %14s %14s\n", "format", "mean diff", "max diff");
  for (const auto& scheme : fx::table8_schemes()) {
    // Whole-model fixed point, as in the paper's evaluation: quantized
    // parameters and feature maps on the bit-accurate datapath.
    hls::QuantizedExecutor exec(scheme);
    auto h = fx::FixedTensor::from_float(batch.images, scheme.feature);
    for (auto* layer : layers) h = exec.run_fixed(*layer, h);
    const auto feat = h.to_float();
    std::printf("  %-14s %14.6f %14.6f\n", scheme.to_string().c_str(),
                nt::mean_abs_diff(feat, reference), nt::max_abs_diff(feat, reference));
  }
  std::printf("\nexpected shape (paper): differences grow as the formats narrow, by\n"
              "orders of magnitude for the narrowest two — explaining Table VIII's\n"
              "accuracy cliff.\n");
  return 0;
}

// Training loop reproducing the paper's recipe (Sec. VI-A2): SGD with
// momentum 0.9 and weight decay 1e-4, CosineAnnealingWarmRestarts, per-epoch
// test-set evaluation for the accuracy-vs-epoch curves of Figs. 6-8.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "nodetr/data/loader.hpp"
#include "nodetr/nn/module.hpp"
#include "nodetr/train/optimizer.hpp"
#include "nodetr/train/scheduler.hpp"

namespace nodetr::train {

using nodetr::data::Batch;
using nodetr::data::Sample;
using nodetr::nn::Module;

struct TrainConfig {
  index_t epochs = 10;
  index_t batch_size = 16;
  SgdConfig sgd{};
  CosineWarmRestartsConfig schedule{};
  bool augment = true;          ///< flip + jitter + erase, as in the paper
  std::uint64_t seed = 0x7247;
  /// Called after every epoch with (epoch, train_loss, test_accuracy).
  std::function<void(index_t, float, float)> on_epoch = nullptr;
};

struct EpochStats {
  index_t epoch = 0;
  float train_loss = 0.0f;
  float test_accuracy = 0.0f;
  float lr = 0.0f;
};

struct History {
  std::vector<EpochStats> epochs;
  [[nodiscard]] float best_accuracy() const;
  /// "epoch,lr,train_loss,test_accuracy" rows for plotting Figs. 6-8.
  [[nodiscard]] std::string to_csv() const;
};

/// Top-1 accuracy of `model` on `samples`, evaluated under an
/// nn::InferenceScope (eval mode, no backward state recorded).
[[nodiscard]] float evaluate(Module& model, const std::vector<Sample>& samples,
                             index_t batch_size = 64);

/// Train `model` on `train_set`, evaluating on `test_set` each epoch.
History fit(Module& model, const std::vector<Sample>& train_set,
            const std::vector<Sample>& test_set, const TrainConfig& config);

}  // namespace nodetr::train

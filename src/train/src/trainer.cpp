#include "nodetr/train/trainer.hpp"

#include <sstream>

#include "nodetr/data/augment.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/train/loss.hpp"

namespace nodetr::train {

float History::best_accuracy() const {
  float best = 0.0f;
  for (const auto& e : epochs) best = std::max(best, e.test_accuracy);
  return best;
}

std::string History::to_csv() const {
  std::ostringstream os;
  os << "epoch,lr,train_loss,test_accuracy\n";
  for (const auto& e : epochs) {
    os << e.epoch << "," << e.lr << "," << e.train_loss << "," << e.test_accuracy << "\n";
  }
  return os.str();
}

float evaluate(Module& model, const std::vector<Sample>& samples, index_t batch_size) {
  obs::ScopedSpan span("train.evaluate");
  span.attr("samples", static_cast<std::int64_t>(samples.size()));
  const nodetr::nn::InferenceScope inference(model);
  index_t correct = 0;
  const index_t n = static_cast<index_t>(samples.size());
  for (index_t begin = 0; begin < n; begin += batch_size) {
    const index_t end = std::min(begin + batch_size, n);
    Batch batch = nodetr::data::stack(samples, begin, end);
    Tensor logits = model.forward(batch.images);
    const index_t b = end - begin, k = logits.dim(1);
    for (index_t r = 0; r < b; ++r) {
      index_t best = 0;
      for (index_t c = 1; c < k; ++c) {
        if (logits[r * k + c] > logits[r * k + best]) best = c;
      }
      if (best == batch.labels[static_cast<std::size_t>(r)]) ++correct;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(std::max<index_t>(n, 1));
}

History fit(Module& model, const std::vector<Sample>& train_set,
            const std::vector<Sample>& test_set, const TrainConfig& config) {
  obs::ScopedSpan fit_span("train.fit");
  fit_span.attr("epochs", config.epochs);
  fit_span.attr("batch_size", config.batch_size);
  fit_span.attr("train_samples", static_cast<std::int64_t>(train_set.size()));
  auto& registry = obs::Registry::instance();
  auto& loss_gauge = registry.gauge("train.loss");
  auto& acc_gauge = registry.gauge("train.test_accuracy");
  auto& lr_gauge = registry.gauge("train.lr");
  auto& batch_counter = registry.counter("train.batches");
  auto& sample_counter = registry.counter("train.samples");
  auto& batch_ms = registry.histogram("train.batch_ms");
  Sgd opt(config.sgd);
  CosineWarmRestarts sched(config.schedule);
  auto augment = config.augment
                     ? std::function<Tensor(const Tensor&, nodetr::data::Rng&)>(
                           [](const Tensor& img, nodetr::data::Rng& rng) {
                             return nodetr::data::augment_train(img, rng);
                           })
                     : nullptr;
  nodetr::data::BatchLoader loader(train_set, config.batch_size, config.seed, augment);
  const auto params = model.parameters();

  History history;
  for (index_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("train.epoch");
    epoch_span.attr("epoch", epoch);
    opt.set_lr(sched.lr_at(epoch));
    lr_gauge.set(opt.lr());
    model.train(true);
    loader.reset();
    double loss_sum = 0.0;
    index_t batches = 0;
    Batch batch;
    while (loader.next(batch)) {
      obs::ScopedSpan batch_span("train.batch");
      const std::uint64_t batch_t0 = obs::Tracer::instance().now_ns();
      model.zero_grad();
      Tensor logits = model.forward(batch.images);
      LossResult res = cross_entropy(logits, batch.labels);
      model.backward(res.grad_logits);
      opt.step(params);
      loss_sum += res.loss;
      ++batches;
      batch_span.attr("loss", res.loss);
      batch_counter.add();
      sample_counter.add(batch.images.dim(0));
      batch_ms.observe(
          static_cast<double>(obs::Tracer::instance().now_ns() - batch_t0) / 1e6);
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.lr = opt.lr();
    stats.train_loss = static_cast<float>(loss_sum / std::max<index_t>(batches, 1));
    stats.test_accuracy = evaluate(model, test_set);
    loss_gauge.set(stats.train_loss);
    acc_gauge.set(stats.test_accuracy);
    epoch_span.attr("train_loss", static_cast<double>(stats.train_loss));
    epoch_span.attr("test_accuracy", static_cast<double>(stats.test_accuracy));
    history.epochs.push_back(stats);
    if (config.on_epoch) config.on_epoch(epoch, stats.train_loss, stats.test_accuracy);
  }
  return history;
}

}  // namespace nodetr::train

#include "nodetr/serve/model_registry.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nodetr/obs/obs.hpp"
#include "nodetr/train/checkpoint.hpp"

namespace nodetr::serve {

const char* to_string(VersionState state) {
  switch (state) {
    case VersionState::kCandidate: return "candidate";
    case VersionState::kActive: return "active";
    case VersionState::kRetired: return "retired";
    case VersionState::kRejected: return "rejected";
  }
  return "?";
}

ModelRegistry::ModelRegistry(hls::MhsaDesignPoint point, hls::MhsaWeights seed,
                             std::size_t keep_retired)
    : config_(hls::module_config(point, seed)),
      keep_retired_(keep_retired) {
  validate(seed);
  auto v = std::make_shared<ModelVersion>();
  const std::uint64_t id = next_id_++;
  v->id = id;
  v->weights = std::move(seed);
  v->note = "seed";
  v->published_at = std::chrono::steady_clock::now();
  entries_[id] = Entry{std::move(v), VersionState::kActive};
  active_id_ = 1;
}

void ModelRegistry::validate(const hls::MhsaWeights& w) const {
  w.check(config_);
  const std::pair<const char*, const tensor::Tensor*> tensors[] = {
      {"wq", &w.wq},       {"wk", &w.wk},       {"wv", &w.wv},
      {"rel_h", &w.rel_h}, {"rel_w", &w.rel_w}, {"ln_gamma", &w.ln_gamma},
      {"ln_beta", &w.ln_beta}};
  for (const auto& [name, t] : tensors) {
    for (tensor::index_t i = 0; i < t->numel(); ++i) {
      if (!std::isfinite(t->data()[i])) {
        throw std::invalid_argument(std::string("ModelRegistry::publish: non-finite value in '") +
                                    name + "' at flat index " + std::to_string(i));
      }
    }
  }
}

std::uint64_t ModelRegistry::publish(hls::MhsaWeights weights, std::string note) {
  validate(weights);  // before the lock and before an id is minted
  auto v = std::make_shared<ModelVersion>();
  v->weights = std::move(weights);
  v->note = std::move(note);
  v->published_at = std::chrono::steady_clock::now();
  std::uint64_t id = 0;
  {
    std::lock_guard lk(mu_);
    id = next_id_++;
    v->id = id;
    entries_[id] = Entry{std::move(v), VersionState::kCandidate};
    evict_old_locked();
    obs::Registry::instance().gauge("serve.registry.versions").set(
        static_cast<double>(entries_.size()));
  }
  static auto& published = obs::Registry::instance().counter("serve.registry.published");
  published.add();
  return id;
}

std::uint64_t ModelRegistry::publish_checkpoint(const std::string& path, std::string note) {
  // Rebuild the registry's structural contract as a scratch software module
  // and route the file through the checkpoint loader's stage-validate-commit
  // path: a corrupt or mismatched container throws train::CheckpointError
  // (naming the offending param) and nothing is published.
  nodetr::tensor::Rng rng(1);
  nn::MultiHeadSelfAttention scratch(config_, rng);
  train::load_checkpoint(path, scratch);
  if (note.empty()) note = "checkpoint:" + path;
  return publish(hls::MhsaWeights::from_module(scratch), std::move(note));
}

std::shared_ptr<const ModelVersion> ModelRegistry::find(std::uint64_t id) const {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.version;
}

std::shared_ptr<const ModelVersion> ModelRegistry::get(std::uint64_t id) const {
  auto v = find(id);
  if (!v) {
    throw std::invalid_argument("ModelRegistry::get: unknown version " + std::to_string(id));
  }
  return v;
}

VersionState ModelRegistry::state(std::uint64_t id) const {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry::state: unknown version " + std::to_string(id));
  }
  return it->second.state;
}

std::uint64_t ModelRegistry::active() const {
  std::lock_guard lk(mu_);
  return active_id_;
}

std::vector<VersionInfo> ModelRegistry::list() const {
  std::lock_guard lk(mu_);
  std::vector<VersionInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    out.push_back(VersionInfo{id, e.state, e.version->note});
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

void ModelRegistry::activate(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry::activate: unknown version " + std::to_string(id));
  }
  if (id == active_id_) {
    throw std::invalid_argument("ModelRegistry::activate: version " + std::to_string(id) +
                                " is already active");
  }
  if (it->second.state == VersionState::kRejected) {
    throw std::invalid_argument("ModelRegistry::activate: version " + std::to_string(id) +
                                " was rejected; republish it instead");
  }
  const auto prev = entries_.find(active_id_);
  if (prev != entries_.end()) prev->second.state = VersionState::kRetired;
  it->second.state = VersionState::kActive;
  active_id_ = id;
  evict_old_locked();
  obs::Registry::instance().gauge("serve.registry.versions").set(
      static_cast<double>(entries_.size()));
}

void ModelRegistry::reject(std::uint64_t id) {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry::reject: unknown version " + std::to_string(id));
  }
  if (it->second.state != VersionState::kCandidate) {
    throw std::invalid_argument("ModelRegistry::reject: version " + std::to_string(id) +
                                " is " + std::string(to_string(it->second.state)) +
                                ", not a candidate");
  }
  it->second.state = VersionState::kRejected;
  static auto& rejected = obs::Registry::instance().counter("serve.registry.rejected");
  rejected.add();
}

void ModelRegistry::evict_old_locked() {
  // Keep the active version, every candidate, and the newest `keep_retired_`
  // retired/rejected snapshots; evict the rest, oldest first.
  std::size_t terminal = 0;
  for (const auto& [id, e] : entries_) {
    if (e.state == VersionState::kRetired || e.state == VersionState::kRejected) ++terminal;
  }
  for (auto it = entries_.begin(); it != entries_.end() && terminal > keep_retired_;) {
    if (it->second.state == VersionState::kRetired ||
        it->second.state == VersionState::kRejected) {
      it = entries_.erase(it);
      --terminal;
    } else {
      ++it;
    }
  }
}

}  // namespace nodetr::serve

#include "nodetr/serve/hot_swap.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nodetr/fault/fault.hpp"

namespace nodetr::serve {

namespace obs = nodetr::obs;

const char* to_string(RollbackReason reason) {
  switch (reason) {
    case RollbackReason::kDivergence: return "divergence";
    case RollbackReason::kFaultBurst: return "fault_burst";
    case RollbackReason::kSlo: return "slo";
    case RollbackReason::kTimeout: return "timeout";
    case RollbackReason::kCommitFault: return "commit_fault";
    case RollbackReason::kManual: return "manual";
  }
  return "?";
}

SwapController::SwapController(HotSwapConfig config, ModelRegistry& registry,
                               const SloMonitor& slo)
    : config_(config), registry_(registry), slo_(slo) {
  if (!(config_.canary_fraction > 0.0) || config_.canary_fraction > 1.0) {
    throw std::invalid_argument("SwapController: hot_swap.canary_fraction must be in (0, 1]");
  }
  if (config_.min_canary_batches < 1) {
    throw std::invalid_argument("SwapController: hot_swap.min_canary_batches must be >= 1");
  }
  if (config_.swap_timeout_us < 0) {
    throw std::invalid_argument("SwapController: hot_swap.swap_timeout_us must be >= 0");
  }
  active_ = registry_.get(registry_.active());
  obs::Registry::instance().gauge("serve.model.version").set(static_cast<double>(active_->id));
}

void SwapController::begin(std::uint64_t id, Clock::time_point now) {
  std::shared_ptr<const ModelVersion> v = registry_.get(id);  // throws on unknown id
  if (registry_.state(id) == VersionState::kRejected) {
    throw std::invalid_argument("InferenceEngine::begin_swap: version " + std::to_string(id) +
                                " was rejected; republish it instead");
  }
  // The SLO monitor takes its own lock; read the baseline outside ours.
  const std::uint64_t breaches = slo_.snapshot().breaches;
  std::lock_guard lk(mu_);
  if (candidate_) {
    throw std::invalid_argument("InferenceEngine::begin_swap: swap already in flight "
                                "(candidate " +
                                std::to_string(candidate_->id) + ")");
  }
  if (active_->id == id) {
    throw std::invalid_argument("InferenceEngine::begin_swap: version " + std::to_string(id) +
                                " is already active");
  }
  samples_cur_ = 0;
  div_sum_ = 0.0;
  div_max_ = 0.0;
  faults_cur_ = 0;
  slo_breaches_at_start_ = breaches;
  started_ = now;
  candidate_ = std::move(v);
  in_flight_.store(true, std::memory_order_relaxed);
  begun_.fetch_add(1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  obs::Registry::instance().counter("serve.swap.begins").add();
  obs::flight_event(0, obs::FlightKind::kSwapBegin, static_cast<std::int64_t>(id));
}

bool SwapController::cancel() {
  std::lock_guard lk(mu_);
  if (!candidate_) return false;
  rollback_locked(RollbackReason::kManual);
  return true;
}

void SwapController::on_canary_batch(std::uint64_t candidate, double divergence) {
  canary_batches_.fetch_add(1, std::memory_order_relaxed);
  static auto& canary_ctr = obs::Registry::instance().counter("serve.swap.canary_batches");
  canary_ctr.add();
  std::lock_guard lk(mu_);
  // Guard against a phase that concluded while this batch ran: stale
  // samples must not pollute the NEXT candidate's gate.
  if (!candidate_ || candidate_->id != candidate) return;
  ++samples_cur_;
  shadow_samples_.fetch_add(1, std::memory_order_relaxed);
  div_sum_ += divergence;
  div_max_ = std::max(div_max_, divergence);
  static auto& div_hist = obs::Registry::instance().histogram("serve.swap.divergence");
  div_hist.observe(divergence);
}

void SwapController::on_canary_fault() {
  if (!in_flight()) return;
  std::lock_guard lk(mu_);
  if (candidate_) ++faults_cur_;
}

void SwapController::tick(Clock::time_point now) {
  if (!in_flight()) return;
  // snapshot() outside mu_: the SLO monitor takes its own lock.
  const SloSnapshot slo = slo_.snapshot();
  std::unique_lock lk(mu_);
  if (!candidate_) return;
  // Rollback triggers are edge-checked at every batch boundary, in severity
  // order; the first that fires concludes the phase.
  if (config_.max_divergence > 0.0 && samples_cur_ > 0 &&
      div_sum_ / static_cast<double>(samples_cur_) > config_.max_divergence) {
    rollback_locked(RollbackReason::kDivergence);
    return;
  }
  if (config_.rollback_fault_burst > 0 && faults_cur_ >= config_.rollback_fault_burst) {
    rollback_locked(RollbackReason::kFaultBurst);
    return;
  }
  if (config_.rollback_slo_breaches > 0 &&
      slo.breaches >= slo_breaches_at_start_ + config_.rollback_slo_breaches) {
    rollback_locked(RollbackReason::kSlo);
    return;
  }
  if (config_.swap_timeout_us > 0 &&
      now - started_ >= std::chrono::microseconds(config_.swap_timeout_us)) {
    rollback_locked(RollbackReason::kTimeout);
    return;
  }
  // Promotion gate: every canary batch is a shadow sample, so enough of them
  // within the divergence threshold (a breach rolled back above) promotes.
  if (samples_cur_ >= config_.min_canary_batches) promote_locked(lk);
}

void SwapController::promote_locked(std::unique_lock<std::mutex>& lk) {
  // The commit point itself is a fault site: an injected failure here must
  // leave the OLD version active — rollback, never a half-commit.
  if (fault::fire("serve.swap.commit")) {
    rollback_locked(RollbackReason::kCommitFault);
    return;
  }
  const std::shared_ptr<const ModelVersion> promoted = candidate_;
  registry_.activate(promoted->id);
  active_ = promoted;
  candidate_.reset();
  in_flight_.store(false, std::memory_order_relaxed);
  const std::uint64_t batches = samples_cur_;
  committed_.fetch_add(1, std::memory_order_relaxed);
  // Publish AFTER the new active pointer is in place: a worker that observes
  // the new epoch always finds the promoted version.
  epoch_.fetch_add(1, std::memory_order_release);
  lk.unlock();
  obs::Registry::instance().gauge("serve.model.version").set(static_cast<double>(promoted->id));
  obs::Registry::instance().counter("serve.swap.commits").add();
  obs::flight_event(0, obs::FlightKind::kSwapCommit, static_cast<std::int64_t>(promoted->id),
                    static_cast<std::int64_t>(batches));
}

void SwapController::rollback_locked(RollbackReason reason) {
  const std::shared_ptr<const ModelVersion> rejected = std::move(candidate_);
  // A candidate is marked rejected in the registry; a RETIRED version that
  // was being rolled forward (begin of an old id) just stays retired.
  if (registry_.state(rejected->id) == VersionState::kCandidate) {
    registry_.reject(rejected->id);
  }
  in_flight_.store(false, std::memory_order_relaxed);
  rolled_back_.fetch_add(1, std::memory_order_relaxed);
  rollbacks_by_reason_[static_cast<std::size_t>(reason)] += 1;
  // The epoch bump tears down every session's canary/shadow replicas at its
  // next batch boundary; the active staging is untouched (non-canary traffic
  // never left the old version).
  epoch_.fetch_add(1, std::memory_order_release);
  obs::Registry::instance().counter("serve.swap.rollbacks").add();
  obs::Registry::instance()
      .counter(std::string("serve.swap.rollbacks.") + to_string(reason))
      .add();
  obs::flight_event(0, obs::FlightKind::kSwapRollback, static_cast<std::int64_t>(rejected->id),
                    static_cast<std::int64_t>(reason));
  // A rollback is a wired dump trigger: the canary's divergence/fault run-up
  // is still in the flight-recorder rings.
  obs::FlightRecorder::instance().dump("swap_rollback");
}

void SwapController::on_stage(bool restaged, double us) {
  if (restaged) {
    restages_.fetch_add(1, std::memory_order_relaxed);
    static auto& restaged_ctr = obs::Registry::instance().counter("serve.swap.restages");
    restaged_ctr.add();
  }
  stage_pause_us_.observe(us);
  static auto& stage_hist = obs::Registry::instance().histogram("serve.swap.stage_us");
  stage_hist.observe(us);
}

void SwapController::on_stage_failure() {
  stage_failures_.fetch_add(1, std::memory_order_relaxed);
  static auto& failures = obs::Registry::instance().counter("serve.swap.stage_failures");
  failures.add();
}

SwapController::Versions SwapController::versions() const {
  std::lock_guard lk(mu_);
  return {active_, candidate_};
}

SwapStats SwapController::stats() const {
  SwapStats s;
  {
    std::lock_guard lk(mu_);
    s.active_version = active_->id;
    s.candidate_version = candidate_ ? candidate_->id : 0;
    s.canary_in_flight = candidate_ != nullptr;
    s.divergence_mean = samples_cur_ > 0 ? div_sum_ / static_cast<double>(samples_cur_) : 0.0;
    s.divergence_max = div_max_;
    s.rollbacks_divergence = rollbacks_by_reason_[0];
    s.rollbacks_fault_burst = rollbacks_by_reason_[1];
    s.rollbacks_slo = rollbacks_by_reason_[2];
    s.rollbacks_timeout = rollbacks_by_reason_[3];
    s.rollbacks_commit_fault = rollbacks_by_reason_[4];
    s.rollbacks_manual = rollbacks_by_reason_[5];
  }
  s.swaps_begun = begun_.load(std::memory_order_relaxed);
  s.swaps_committed = committed_.load(std::memory_order_relaxed);
  s.swaps_rolled_back = rolled_back_.load(std::memory_order_relaxed);
  s.canary_batches = canary_batches_.load(std::memory_order_relaxed);
  s.shadow_samples = shadow_samples_.load(std::memory_order_relaxed);
  s.restages = restages_.load(std::memory_order_relaxed);
  s.stage_failures = stage_failures_.load(std::memory_order_relaxed);
  s.stage_p50_us = stage_pause_us_.percentile(50);
  s.stage_p99_us = stage_pause_us_.percentile(99);
  return s;
}

}  // namespace nodetr::serve

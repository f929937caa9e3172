// serve::SwapController — the canary / rollback policy of a live model
// update, with no sessions, replicas or threads of its own.
//
// The engine owns the work that touches sessions: re-staging a session's
// datapaths when epoch() moves, picking canary batches, and running the
// canary and shadow replicas. It reports three events here —
//
//   on_canary_batch(candidate, divergence)  a shadow-scored canary batch ran
//   on_canary_fault()                       a device fault or canary-run
//                                           failure during the canary
//   tick(now)                               a batch boundary
//
// — and the controller owns everything else: the RCU epoch, the active and
// candidate snapshots, the per-phase accumulators, the four rollback
// triggers (divergence, fault burst, SLO breaches, timeout), the promotion
// gate, the commit point with its ModelRegistry calls (faultable at
// "serve.swap.commit"), and SwapStats.
//
// Every canary batch is shadow-scored, so the promotion gate is
// min_canary_batches in-threshold samples. Thread-safe: every method may be
// called from any worker; one mutex guards the phase state, and in_flight()
// is one relaxed load so an idle batch boundary costs nothing more.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "nodetr/obs/obs.hpp"
#include "nodetr/serve/model_registry.hpp"
#include "nodetr/serve/slo.hpp"

namespace nodetr::serve {

/// Canary / rollback policy for live model updates (begin_swap). The gates
/// compose: promotion needs min_canary_batches shadow-scored canary batches
/// with mean divergence within max_divergence AND no rollback trigger fired
/// first.
struct HotSwapConfig {
  /// Fraction of batches routed to the candidate during canary, per worker,
  /// deterministically interleaved. Must be in (0, 1].
  double canary_fraction = 0.25;
  /// Canary batches (across workers) required before promotion.
  std::uint32_t min_canary_batches = 8;
  /// Rollback (and promotion-gate) threshold on the mean shadow divergence
  /// (divergence = mean |canary - baseline| / mean |baseline|). <= 0
  /// disables the divergence gate entirely.
  double max_divergence = 1e-3;
  /// Rollback when this many device faults / canary-run failures accumulate
  /// during one canary phase. 0 disables the trigger.
  std::uint32_t rollback_fault_burst = 8;
  /// Rollback when the SLO monitor reports this many *new* breaches since
  /// the canary began. 0 disables the trigger.
  std::uint32_t rollback_slo_breaches = 2;
  /// Rollback a canary that has not promoted within this wall budget (e.g.
  /// staging keeps failing, or no traffic arrives). 0 = no timeout.
  std::int64_t swap_timeout_us = 10'000'000;
};

/// Why an in-flight swap was rolled back (SwapStats counters).
enum class RollbackReason {
  kDivergence,  ///< shadow divergence exceeded max_divergence
  kFaultBurst,  ///< >= rollback_fault_burst faults during the canary
  kSlo,         ///< >= rollback_slo_breaches new SLO breaches
  kTimeout,     ///< swap_timeout_us elapsed without promotion
  kCommitFault, ///< injected "serve.swap.commit" fault aborted the commit
  kManual,      ///< cancel_swap()
};

[[nodiscard]] const char* to_string(RollbackReason reason);

/// Live view of the hot-swap machinery (EngineStats::swap / swap_stats()).
struct SwapStats {
  std::uint64_t active_version = 0;     ///< what non-canary traffic serves
  std::uint64_t candidate_version = 0;  ///< 0 when no swap is in flight
  bool canary_in_flight = false;
  std::uint64_t swaps_begun = 0;
  std::uint64_t swaps_committed = 0;
  std::uint64_t swaps_rolled_back = 0;
  // Rollbacks by reason, same order as RollbackReason.
  std::uint64_t rollbacks_divergence = 0;
  std::uint64_t rollbacks_fault_burst = 0;
  std::uint64_t rollbacks_slo = 0;
  std::uint64_t rollbacks_timeout = 0;
  std::uint64_t rollbacks_commit_fault = 0;
  std::uint64_t rollbacks_manual = 0;
  std::uint64_t canary_batches = 0;     ///< lifetime canary batches executed
  std::uint64_t shadow_samples = 0;     ///< lifetime shadow samples that fed a gate
  double divergence_mean = 0.0;         ///< current/last canary phase
  double divergence_max = 0.0;          ///< current/last canary phase
  std::uint64_t restages = 0;           ///< session version re-stagings
  std::uint64_t stage_failures = 0;     ///< staging attempts that faulted
  /// Stage-pause percentiles (µs): the per-session pause a re-staging adds
  /// at a batch boundary — the "swap pause" bench_hotswap gates on.
  double stage_p50_us = 0.0;
  double stage_p99_us = 0.0;
};

class SwapController {
 public:
  using Clock = std::chrono::steady_clock;

  /// The registry's active version becomes the first active snapshot.
  /// `registry` and `slo` must outlive the controller. Throws
  /// std::invalid_argument on an out-of-range config.
  SwapController(HotSwapConfig config, ModelRegistry& registry, const SloMonitor& slo);

  SwapController(const SwapController&) = delete;
  SwapController& operator=(const SwapController&) = delete;

  /// Start a canary phase for `id` at `now`. Throws std::invalid_argument
  /// when `id` is unknown, rejected or already active, or another swap is in
  /// flight.
  void begin(std::uint64_t id, Clock::time_point now);
  /// Roll back the in-flight canary (kManual); false when none was.
  bool cancel();

  /// A shadow-scored canary batch of `candidate` finished. A sample for a
  /// candidate whose phase already concluded is dropped.
  void on_canary_batch(std::uint64_t candidate, double divergence);
  /// A device fault or canary-run failure (counts toward the fault burst).
  void on_canary_fault();
  /// Batch boundary: evaluate the rollback triggers, in severity order, and
  /// then the promotion gate. The timeout is measured against `now`.
  void tick(Clock::time_point now);
  /// A session staged the current versions at a batch boundary in `us`;
  /// `restaged` when that replaced its active datapath. Or staging faulted.
  void on_stage(bool restaged, double us);
  void on_stage_failure();

  /// True while a canary is in flight (one relaxed load).
  [[nodiscard]] bool in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  /// The RCU edge: bumped exactly once per begin, commit and rollback, after
  /// the snapshots it publishes are in place.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// The active snapshot and the candidate (null outside a canary), read
  /// together.
  struct Versions {
    std::shared_ptr<const ModelVersion> active;
    std::shared_ptr<const ModelVersion> candidate;
  };
  [[nodiscard]] Versions versions() const;
  [[nodiscard]] SwapStats stats() const;

 private:
  void promote_locked(std::unique_lock<std::mutex>& lk);
  void rollback_locked(RollbackReason reason);

  HotSwapConfig config_;
  ModelRegistry& registry_;
  const SloMonitor& slo_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<bool> in_flight_{false};
  std::atomic<std::uint64_t> begun_{0}, committed_{0}, rolled_back_{0};
  std::atomic<std::uint64_t> canary_batches_{0}, shadow_samples_{0};
  std::atomic<std::uint64_t> restages_{0}, stage_failures_{0};
  obs::Histogram stage_pause_us_;  ///< feeds the SwapStats percentiles
  mutable std::mutex mu_;  ///< guards everything below
  std::shared_ptr<const ModelVersion> active_;
  std::shared_ptr<const ModelVersion> candidate_;  ///< non-null in canary
  Clock::time_point started_{};
  std::uint64_t samples_cur_ = 0;  ///< this phase's shadow-scored canary batches
  double div_sum_ = 0.0;
  double div_max_ = 0.0;
  std::uint64_t faults_cur_ = 0;
  std::uint64_t slo_breaches_at_start_ = 0;
  std::uint64_t rollbacks_by_reason_[6] = {0, 0, 0, 0, 0, 0};
};

}  // namespace nodetr::serve

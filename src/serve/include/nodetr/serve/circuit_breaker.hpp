// CircuitBreaker: the self-healing replacement for the one-way FPGA -> CPU
// fallback ladder.
//
//                 open_after consecutive
//                    device faults
//        ┌────────┐ ──────────────────► ┌──────┐
//        │ CLOSED │                     │ OPEN │◄─────────────┐
//        └────────┘ ◄──────────┐        └──────┘              │
//             ▲                │            │ cooldown        │
//             │                │            │ elapsed         │ probe faults
//             │ probe succeeds │            ▼   (cooldown *=  │  multiplier)
//             │                │       ┌───────────┐          │
//             └────────────────┴────── │ HALF-OPEN │ ─────────┘
//                                      └───────────┘
//
// CLOSED: traffic runs on the session's home (FPGA) backend; consecutive
// transient device faults are counted, any success resets the count.
// OPEN: the device is presumed broken; traffic runs on the CPU fallback.
// After `cooldown_us` the next batch becomes a HALF-OPEN probe on the real
// device: success closes the breaker (the session is restored to its FPGA
// backend), another fault re-opens it with an exponentially longer cooldown
// (capped), so a flapping device converges to mostly-CPU instead of
// thrashing.
//
// Thread safety: one breaker belongs to one worker session; on_fault /
// on_success / probe_due are only called by the owning worker. `state()` is
// an atomic so stats() can read it from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace nodetr::serve {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct BreakerConfig {
  /// Consecutive transient device faults that open the breaker (demote the
  /// session to CPU). 0 disables the breaker: faults only ever retry.
  int open_after = 8;
  /// Time the breaker stays open before the next batch probes the device.
  std::int64_t cooldown_us = 100'000;
  /// Failed probe: cooldown grows by this factor (capped at max_cooldown_us).
  double cooldown_multiplier = 2.0;
  std::int64_t max_cooldown_us = 5'000'000;
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// State transition caused by an on_fault / on_success call, or
  /// (kHalfOpened) by a probe_due() that returned true; the engine maps
  /// these onto metrics and backend switches.
  enum class Event { kNone, kOpened, kReopened, kHalfOpened, kClosed };

  explicit CircuitBreaker(BreakerConfig config);

  /// A transient device fault on this session. CLOSED: counts toward
  /// open_after (kOpened on the crossing). HALF-OPEN: the probe failed —
  /// back to OPEN with a longer cooldown (kReopened).
  Event on_fault() { return on_fault(Clock::now()); }
  Event on_fault(Clock::time_point now);

  /// A successful device execute. HALF-OPEN: the device healed (kClosed).
  /// CLOSED: resets the consecutive-fault count.
  Event on_success();

  /// OPEN and the cooldown has elapsed: transition to HALF-OPEN and return
  /// true — the caller owes the device one probe batch.
  [[nodiscard]] bool probe_due() { return probe_due(Clock::now()); }
  [[nodiscard]] bool probe_due(Clock::time_point now);

  [[nodiscard]] BreakerState state() const {
    return state_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int consecutive_faults() const { return consecutive_faults_; }
  [[nodiscard]] std::int64_t current_cooldown_us() const { return cooldown_us_; }
  [[nodiscard]] const BreakerConfig& config() const { return config_; }

 private:
  BreakerConfig config_;
  std::atomic<BreakerState> state_{BreakerState::kClosed};
  int consecutive_faults_ = 0;
  std::int64_t cooldown_us_ = 0;
  Clock::time_point opened_at_{};
};

}  // namespace nodetr::serve

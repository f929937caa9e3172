#include "nodetr/serve/circuit_breaker.hpp"

#include <algorithm>
#include <stdexcept>

namespace nodetr::serve {

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  if (config_.open_after < 0) {
    throw std::invalid_argument("CircuitBreaker: open_after must be >= 0");
  }
  if (config_.cooldown_us < 0 || config_.max_cooldown_us < 0) {
    throw std::invalid_argument("CircuitBreaker: cooldowns must be >= 0");
  }
  if (config_.cooldown_multiplier < 1.0) {
    throw std::invalid_argument("CircuitBreaker: cooldown_multiplier must be >= 1");
  }
}

CircuitBreaker::Event CircuitBreaker::on_fault(Clock::time_point now) {
  switch (state()) {
    case BreakerState::kClosed:
      if (config_.open_after <= 0) return Event::kNone;
      if (++consecutive_faults_ < config_.open_after) return Event::kNone;
      cooldown_us_ = config_.cooldown_us;
      opened_at_ = now;
      state_.store(BreakerState::kOpen, std::memory_order_relaxed);
      return Event::kOpened;
    case BreakerState::kHalfOpen:
      // The probe faulted: the device is still broken. Back off harder.
      cooldown_us_ = std::min(
          static_cast<std::int64_t>(static_cast<double>(std::max<std::int64_t>(
                                        cooldown_us_, 1)) *
                                    config_.cooldown_multiplier),
          config_.max_cooldown_us);
      opened_at_ = now;
      state_.store(BreakerState::kOpen, std::memory_order_relaxed);
      return Event::kReopened;
    case BreakerState::kOpen:
      // Traffic should not reach an open breaker's device; tolerate anyway.
      return Event::kNone;
  }
  return Event::kNone;
}

CircuitBreaker::Event CircuitBreaker::on_success() {
  consecutive_faults_ = 0;
  if (state() == BreakerState::kHalfOpen) {
    state_.store(BreakerState::kClosed, std::memory_order_relaxed);
    return Event::kClosed;
  }
  return Event::kNone;
}

bool CircuitBreaker::probe_due(Clock::time_point now) {
  if (state() != BreakerState::kOpen) return false;
  if (now - opened_at_ < std::chrono::microseconds(cooldown_us_)) return false;
  state_.store(BreakerState::kHalfOpen, std::memory_order_relaxed);
  return true;
}

}  // namespace nodetr::serve

#include "nodetr/serve/router.hpp"

#include <stdexcept>

namespace nodetr::serve {

ClusterRouter::ClusterRouter(std::vector<DeviceSeed> devices) {
  if (devices.empty()) {
    throw std::invalid_argument("ClusterRouter: need at least one device");
  }
  devices_.reserve(devices.size());
  for (DeviceSeed& seed : devices) {
    auto dev = std::make_unique<Device>();
    dev->name = std::move(seed.name);
    dev->us_per_row.store(seed.est_us_per_row > 0.0 ? seed.est_us_per_row : 1.0,
                          std::memory_order_relaxed);
    devices_.push_back(std::move(dev));
  }
}

double ClusterRouter::cost_us(std::size_t d, index_t rows) const {
  const Device& dev = *devices_[d];
  const auto load_rows =
      static_cast<double>(dev.pending_rows.load(std::memory_order_relaxed) + rows);
  return dev.us_per_row.load(std::memory_order_relaxed) * load_rows +
         kQueuePenaltyUs *
             static_cast<double>(dev.pending_requests.load(std::memory_order_relaxed));
}

std::size_t ClusterRouter::pick(index_t rows, Clock::time_point now) const {
  const std::int64_t now_us = to_us(now);
  // Pass 1: devices whose breaker is closed, or open with the cooldown
  // elapsed (routable so the half-open probe gets a batch). Strict `<`
  // tie-breaks to the lowest index, which keeps the dispatch sequence
  // deterministic for a given state.
  std::size_t best = kNone;
  double best_cost = 0.0;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    const Device& dev = *devices_[d];
    if (dev.lost.load(std::memory_order_relaxed)) continue;
    if (dev.open.load(std::memory_order_relaxed) &&
        now_us < dev.reopen_at_us.load(std::memory_order_relaxed)) {
      continue;
    }
    const double c = cost_us(d, rows);
    if (best == kNone || c < best_cost) {
      best = d;
      best_cost = c;
    }
  }
  if (best != kNone) return best;
  // Pass 2: every live device is open mid-cooldown. Traffic must still flow —
  // the cheapest device's demoted session serves it on the CPU fallback.
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (devices_[d]->lost.load(std::memory_order_relaxed)) continue;
    const double c = cost_us(d, rows);
    if (best == kNone || c < best_cost) {
      best = d;
      best_cost = c;
    }
  }
  return best != kNone ? best : 0;
}

void ClusterRouter::on_dispatch(std::size_t d, index_t rows) {
  devices_[d]->pending_rows.fetch_add(rows, std::memory_order_relaxed);
  devices_[d]->pending_requests.fetch_add(1, std::memory_order_relaxed);
}

void ClusterRouter::on_resolved(std::size_t d, index_t rows) {
  devices_[d]->pending_rows.fetch_sub(rows, std::memory_order_relaxed);
  devices_[d]->pending_requests.fetch_sub(1, std::memory_order_relaxed);
}

void ClusterRouter::observe(std::size_t d, double us_per_row) {
  if (us_per_row <= 0.0) return;
  Device& dev = *devices_[d];
  // Plain load/store (no CAS loop): the owning worker is the only writer.
  const double old = dev.us_per_row.load(std::memory_order_relaxed);
  dev.us_per_row.store(old + kEwmaAlpha * (us_per_row - old),
                       std::memory_order_relaxed);
}

void ClusterRouter::on_breaker_open(std::size_t d, std::int64_t cooldown_us,
                                    Clock::time_point now) {
  Device& dev = *devices_[d];
  dev.reopen_at_us.store(to_us(now) + (cooldown_us > 0 ? cooldown_us : 0),
                         std::memory_order_relaxed);
  dev.open.store(true, std::memory_order_relaxed);
}

void ClusterRouter::on_breaker_close(std::size_t d) {
  devices_[d]->open.store(false, std::memory_order_relaxed);
}

void ClusterRouter::on_device_lost(std::size_t d) {
  devices_[d]->lost.store(true, std::memory_order_relaxed);
}

std::int64_t ClusterRouter::pending_requests_total() const {
  std::int64_t total = 0;
  for (const auto& dev : devices_) {
    total += dev->pending_requests.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace nodetr::serve

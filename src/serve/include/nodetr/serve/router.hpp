// ClusterRouter — least-loaded / cost-model dispatch across a fleet of boards.
//
//   clients ──► central RequestQueue (FIFO)
//                    │  single router thread, strict pop order
//               ClusterRouter::pick(rows)
//                    │  argmin over devices of
//                    │    cost_us(d) = us_per_row(d) · (pending_rows(d) + rows)
//                    │               + kQueuePenaltyUs · pending_requests(d)
//                    ▼
//               per-device RequestQueue ──► MicroBatcher ──► worker/board
//
// The per-row cost estimate is seeded from the analytic CycleModel (estimated
// cycles ÷ the board's clock) and then tracked as an EWMA of what each device
// actually delivers, so a board that throttles 10× drifts expensive within a
// few batches and traffic rebalances without any explicit signal.
//
// Breaker integration: a device whose circuit breaker opened is ineligible
// while its cooldown runs — pick() never selects it as long as any eligible
// device exists. Once the cooldown elapses the device becomes routable again
// so the breaker's half-open probe gets traffic (a starved device could never
// heal). If EVERY device is open mid-cooldown, requests still flow to the
// cheapest one: its demoted session serves them on the CPU fallback.
//
// Determinism: pick() is a pure argmin over the tracked state with
// lowest-index tie-breaking — one router thread in, one dispatch sequence
// out. All state is atomic so stats() and tests can observe it from other
// threads; mutation ordering is the single router/worker protocol described
// on each method.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::serve {

using nodetr::tensor::index_t;

class ClusterRouter {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// EWMA smoothing for the observed µs-per-row estimate; higher adapts
  /// faster (1.0 would trust only the last batch).
  static constexpr double kEwmaAlpha = 0.3;
  /// Cost penalty per already-queued request — biases ties toward shallow
  /// queues so one slow request cannot convoy a whole device.
  static constexpr double kQueuePenaltyUs = 25.0;

  struct DeviceSeed {
    std::string name;
    double est_us_per_row = 1.0;  ///< initial cost estimate (µs per row)
  };

  explicit ClusterRouter(std::vector<DeviceSeed> devices);

  [[nodiscard]] std::size_t size() const { return devices_.size(); }
  [[nodiscard]] const std::string& name(std::size_t d) const { return devices_[d]->name; }

  /// Pick the cheapest routable device for a `rows`-row request.
  [[nodiscard]] std::size_t pick(index_t rows) const { return pick(rows, Clock::now()); }
  [[nodiscard]] std::size_t pick(index_t rows, Clock::time_point now) const;

  /// Cost-model value pick() minimizes (exposed for tests and stats).
  [[nodiscard]] double cost_us(std::size_t d, index_t rows) const;

  /// Router thread: request dispatched to `d`.
  void on_dispatch(std::size_t d, index_t rows);
  /// Any resolution path: a request routed to `d` completed/failed/expired —
  /// its rows no longer load the device. Called exactly once per dispatched
  /// request.
  void on_resolved(std::size_t d, index_t rows);
  /// Worker `d`: a batch executed; fold the observed per-row cost into the
  /// EWMA estimate. CPU-fallback batches report their wall time, so a
  /// demoted device is costed at what it actually delivers.
  void observe(std::size_t d, double us_per_row);

  /// Worker `d`: breaker opened (or re-opened); steer traffic elsewhere
  /// until `cooldown_us` from now, then allow probe traffic.
  void on_breaker_open(std::size_t d, std::int64_t cooldown_us) {
    on_breaker_open(d, cooldown_us, Clock::now());
  }
  void on_breaker_open(std::size_t d, std::int64_t cooldown_us, Clock::time_point now);
  /// Worker `d`: a half-open probe succeeded, the device is healthy again.
  void on_breaker_close(std::size_t d);
  /// Worker `d` is gone for good (respawn failed): never route to it again.
  void on_device_lost(std::size_t d);

  [[nodiscard]] bool breaker_open(std::size_t d) const {
    return devices_[d]->open.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool lost(std::size_t d) const {
    return devices_[d]->lost.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t pending_rows(std::size_t d) const {
    return devices_[d]->pending_rows.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t pending_requests(std::size_t d) const {
    return devices_[d]->pending_requests.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t pending_requests_total() const;
  [[nodiscard]] double us_per_row(std::size_t d) const {
    return devices_[d]->us_per_row.load(std::memory_order_relaxed);
  }

 private:
  struct Device {
    std::string name;
    std::atomic<std::int64_t> pending_rows{0};
    std::atomic<std::int64_t> pending_requests{0};
    std::atomic<double> us_per_row{1.0};
    std::atomic<bool> open{false};
    std::atomic<bool> lost{false};
    /// steady-clock µs after which an open device may receive probe traffic.
    std::atomic<std::int64_t> reopen_at_us{0};
  };

  [[nodiscard]] static std::int64_t to_us(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch()).count();
  }

  std::vector<std::unique_ptr<Device>> devices_;  ///< unique_ptr: atomics don't move
};

}  // namespace nodetr::serve

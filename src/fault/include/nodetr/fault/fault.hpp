// nodetr::fault — deterministic, seedable fault injection for the serving
// stack (the dependability counterpart to nodetr::obs).
//
// The hardware this project simulates fails in well-known ways: a stalled IP
// core that never raises STATUS.DONE, a DMA engine reporting a transfer
// error, an ECC event on the DDR path, an AXI-Lite slave NACKing a register
// access, an allocation failing under memory pressure, a worker thread
// dying. This module lets tests (and soak runs) inject exactly those faults
// on a deterministic schedule so the hardening around them — deadlines,
// retries, fallback, worker supervision — stays tested forever.
//
// Model:
//   - every place that can fault is a named *site* ("rt.dma.error",
//     "hls.ip.stall", "serve.alloc", "serve.worker_crash", ...); the code at
//     the site asks `fault::fire(site)` on each operation. Not every site
//     throws: the overload sites "serve.overload.shed" (admission refuses
//     the submit) and "serve.overload.expire" (a queued request is treated
//     as past its deadline at batch formation) force the serving engine's
//     shedding paths on a deterministic schedule instead;
//   - a site is dormant (one relaxed atomic load, no strings, no locks)
//     until a test *arms* it with a Schedule;
//   - a Schedule decides, from the site's per-site operation counter and a
//     seeded per-site PRNG, whether this operation faults. Same seed + same
//     schedule + same operation order => same fault pattern, always.
//
// Faults surface as exceptions derived from FaultError, which carries the
// site and whether the fault is *transient* (retrying the operation may
// succeed — the contract the serving engine's retry policy keys on).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace nodetr::fault {

/// Base of the fault taxonomy. `transient()` tells recovery code whether the
/// operation is worth retrying (DMA error, ECC event, NACK, stall) or not.
class FaultError : public std::runtime_error {
 public:
  FaultError(std::string site, const std::string& what, bool transient)
      : std::runtime_error(what), site_(std::move(site)), transient_(transient) {}

  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] bool transient() const { return transient_; }

 private:
  std::string site_;
  bool transient_;
};

/// AXI-Stream DMA reported a transfer error (descriptor fault / slave error).
class DmaTransferError : public FaultError {
 public:
  explicit DmaTransferError(std::string site)
      : FaultError(std::move(site), "DMA transfer error (injected)", true) {}
};

/// The DDR path detected an uncorrectable ECC event on a read or write.
class DdrEccError : public FaultError {
 public:
  explicit DdrEccError(std::string site)
      : FaultError(std::move(site), "DDR ECC error: bit flip detected (injected)", true) {}
};

/// An AXI-Lite register access was NACKed by the slave.
class AxiNackError : public FaultError {
 public:
  explicit AxiNackError(std::string site)
      : FaultError(std::move(site), "AXI-Lite access NACKed (injected)", true) {}
};

/// The IP core hung: it will never raise STATUS.DONE for this START. Thrown
/// by the functional IP model; the accelerator driver converts it into an
/// unraised DONE flag, which the execute() deadline then diagnoses.
class IpStallFault : public FaultError {
 public:
  explicit IpStallFault(std::string site)
      : FaultError(std::move(site), "IP core stalled: DONE never raised (injected)", true) {}
};

/// The fixed-point datapath's sticky overflow flag tripped: at least one
/// accumulator saturated hard enough that the driver must discard the run.
class FixedOverflowFault : public FaultError {
 public:
  explicit FixedOverflowFault(std::string site)
      : FaultError(std::move(site), "fixed-point overflow saturation event (injected)", true) {}
};

/// A batch-assembly allocation failed (memory pressure).
class AllocationFault : public FaultError {
 public:
  explicit AllocationFault(std::string site)
      : FaultError(std::move(site), "allocation failure (injected)", true) {}
};

/// A worker thread died outside the per-batch guard.
class WorkerCrashFault : public FaultError {
 public:
  explicit WorkerCrashFault(std::string site)
      : FaultError(std::move(site), "worker crash (injected)", false) {}
};

/// Staging a new model version into a live session failed (the IP rebuild /
/// weight re-quantization / board re-wire step of a hot-swap). Transient: the
/// worker keeps serving its previously staged version and retries staging at
/// the next batch boundary; a swap that can never stage rolls back via its
/// timeout.
class SwapStageFault : public FaultError {
 public:
  explicit SwapStageFault(std::string site)
      : FaultError(std::move(site), "model version staging failed (injected)", true) {}
};

/// A device operation did not complete within its wall-clock or
/// simulated-cycle budget. Transient: re-issuing the START may succeed.
class DeadlineExceeded : public FaultError {
 public:
  DeadlineExceeded(std::string site, const std::string& what)
      : FaultError(std::move(site), what, true) {}
};

/// When this operation (and the ones after it) should fault. All fields
/// combine with OR; every decision is deterministic in (seed, op index).
struct Schedule {
  /// Fire at exactly these 0-based operation indices (counted per site from
  /// the moment the site is armed).
  std::vector<std::uint64_t> at;
  /// Fire on every operation in [first, last) (end-exclusive; empty = off).
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  /// Fire each operation independently with this probability, drawn from the
  /// site's seeded PRNG.
  double probability = 0.0;
  /// Stop firing after this many faults (the schedule stays armed but inert).
  std::uint64_t max_fires = std::numeric_limits<std::uint64_t>::max();

  /// Fire once, at operation `op`.
  [[nodiscard]] static Schedule once(std::uint64_t op = 0) {
    Schedule s;
    s.at = {op};
    return s;
  }
  /// Fire at each listed operation index.
  [[nodiscard]] static Schedule at_ops(std::vector<std::uint64_t> ops) {
    Schedule s;
    s.at = std::move(ops);
    return s;
  }
  /// Fire on every operation (until `max_fires`, if given).
  [[nodiscard]] static Schedule always(
      std::uint64_t max_fires = std::numeric_limits<std::uint64_t>::max()) {
    Schedule s;
    s.first = 0;
    s.last = std::numeric_limits<std::uint64_t>::max();
    s.max_fires = max_fires;
    return s;
  }
  /// Fire each operation with probability `p` from the seeded PRNG.
  [[nodiscard]] static Schedule with_probability(double p) {
    Schedule s;
    s.probability = p;
    return s;
  }
};

/// Process-wide injector. Dormant (one relaxed atomic load per site check)
/// unless at least one site is armed — production builds pay nothing.
class Injector {
 public:
  static Injector& instance();

  /// Reseed the per-site PRNG streams. Each armed site derives its own
  /// stream from (seed, site name), so schedules on different sites are
  /// independent but individually reproducible. Affects sites armed after
  /// the call.
  void seed(std::uint64_t seed);

  /// Arm `site` with `schedule` (replacing any previous schedule and
  /// resetting the site's operation/fire counters).
  void arm(const std::string& site, Schedule schedule);
  void disarm(const std::string& site);
  /// Disarm every site and forget all counters. Tests call this in
  /// SetUp/TearDown so schedules never leak across cases.
  void reset();

  /// One operation at `site`: advances the site's op counter and reports
  /// whether this operation faults. Dormant sites return false without
  /// taking the lock.
  [[nodiscard]] bool fire(const std::string& site);

  /// Deterministic 64-bit parameter for the *current* fault (e.g. which bit
  /// to flip). Draws from the site's PRNG stream.
  [[nodiscard]] std::uint64_t draw(const std::string& site);

  [[nodiscard]] std::uint64_t ops(const std::string& site) const;
  [[nodiscard]] std::uint64_t fires(const std::string& site) const;

  [[nodiscard]] bool armed() const {
    return armed_sites_.load(std::memory_order_relaxed) > 0;
  }

 private:
  Injector() = default;

  struct Site {
    Schedule schedule;
    std::uint64_t ops = 0;
    std::uint64_t fires = 0;
    std::uint64_t rng_state = 0;  ///< splitmix64 stream seeded from (seed, name)
  };

  [[nodiscard]] bool fire_locked(Site& site);

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  std::uint64_t seed_ = 0;
  std::atomic<int> armed_sites_{0};
};

/// The site check every instrumented operation calls. Zero-cost when no site
/// is armed (a single relaxed atomic load, no string construction — pass a
/// literal).
[[nodiscard]] inline bool fire(const char* site) {
  Injector& inj = Injector::instance();
  if (!inj.armed()) return false;
  return inj.fire(std::string(site));
}

/// Scoped variant for multi-device hardware models: checks the process-wide
/// site AND, when `scope` is non-empty, the site "<site>.<scope>" (e.g.
/// "rt.dma.error.dev3"). Each scoped site draws from its own (seed, name)
/// PRNG stream, so arming "rt.dma.error.dev3" fault-storms one board while
/// its siblings keep running clean — and the same seed replays the same
/// per-device pattern. Both op counters always advance (no short-circuit) so
/// a schedule on one site never perturbs the other's determinism.
[[nodiscard]] inline bool fire(const char* site, const std::string& scope) {
  Injector& inj = Injector::instance();
  if (!inj.armed()) return false;
  const bool base = inj.fire(std::string(site));
  const bool scoped = !scope.empty() && inj.fire(std::string(site) + '.' + scope);
  return base || scoped;
}

/// Classify an in-flight exception: true iff it is a FaultError marked
/// transient, or a DeadlineExceeded. Recovery policy (retry/backoff) keys on
/// this; unknown exceptions are permanent by definition.
[[nodiscard]] bool is_transient(const std::exception_ptr& error);

}  // namespace nodetr::fault

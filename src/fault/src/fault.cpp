#include "nodetr/fault/fault.hpp"

#include <algorithm>

#include "nodetr/obs/metrics.hpp"

namespace nodetr::fault {

namespace {

/// splitmix64 — tiny, seedable, and good enough for Bernoulli draws and bit
/// indices. State advances per draw; streams are decorrelated by mixing the
/// site name into the initial state.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Injector& Injector::instance() {
  static Injector inj;
  return inj;
}

void Injector::seed(std::uint64_t seed) {
  std::lock_guard lk(mu_);
  seed_ = seed;
}

void Injector::arm(const std::string& site, Schedule schedule) {
  std::lock_guard lk(mu_);
  auto [it, inserted] = sites_.try_emplace(site);
  if (inserted) armed_sites_.fetch_add(1, std::memory_order_relaxed);
  it->second = Site{};
  it->second.schedule = std::move(schedule);
  it->second.rng_state = seed_ ^ fnv1a(site);
}

void Injector::disarm(const std::string& site) {
  std::lock_guard lk(mu_);
  if (sites_.erase(site) > 0) armed_sites_.fetch_sub(1, std::memory_order_relaxed);
}

void Injector::reset() {
  std::lock_guard lk(mu_);
  armed_sites_.fetch_sub(static_cast<int>(sites_.size()), std::memory_order_relaxed);
  sites_.clear();
}

bool Injector::fire_locked(Site& site) {
  const std::uint64_t op = site.ops++;
  if (site.fires >= site.schedule.max_fires) return false;
  bool hit = std::find(site.schedule.at.begin(), site.schedule.at.end(), op) !=
             site.schedule.at.end();
  hit = hit || (op >= site.schedule.first && op < site.schedule.last);
  if (!hit && site.schedule.probability > 0.0) {
    const double u =
        static_cast<double>(splitmix64(site.rng_state) >> 11) * 0x1.0p-53;  // [0, 1)
    hit = u < site.schedule.probability;
  }
  if (hit) ++site.fires;
  return hit;
}

bool Injector::fire(const std::string& site) {
  bool hit = false;
  {
    std::lock_guard lk(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    hit = fire_locked(it->second);
  }
  if (hit) {
    static auto& injected = obs::Registry::instance().counter("fault.injected");
    injected.add();
    obs::Registry::instance().counter("fault.injected." + site).add();
  }
  return hit;
}

std::uint64_t Injector::draw(const std::string& site) {
  std::lock_guard lk(mu_);
  auto it = sites_.find(site);
  // An unarmed site still yields a deterministic value (seed + name only).
  std::uint64_t scratch = seed_ ^ fnv1a(site);
  return splitmix64(it == sites_.end() ? scratch : it->second.rng_state);
}

std::uint64_t Injector::ops(const std::string& site) const {
  std::lock_guard lk(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.ops;
}

std::uint64_t Injector::fires(const std::string& site) const {
  std::lock_guard lk(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

bool is_transient(const std::exception_ptr& error) {
  if (!error) return false;
  try {
    std::rethrow_exception(error);
  } catch (const FaultError& e) {
    return e.transient();
  } catch (...) {
    return false;
  }
}

}  // namespace nodetr::fault

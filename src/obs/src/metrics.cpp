#include "nodetr/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nodetr::obs {

namespace {

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Strict-JSON number: bare `inf`/`nan` are invalid JSON, so non-finite
/// values become null (the BENCH_fault.json bug this guards against).
void append_json_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

/// OpenMetrics metric names allow [a-zA-Z0-9_:]; dots and anything else
/// become '_' ("serve.queue.wait_us" -> "serve_queue_wait_us").
std::string sanitize_metric_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// OpenMetrics forbids NaN-free guarantees too — clamp non-finite to 0.
void append_om_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << 0;
  }
}

}  // namespace

std::vector<double> Histogram::default_bounds() {
  // Geometric grid: 1e-3 * 10^(k/3) for k = 0..30 — spans sub-microsecond
  // timings up to 1e7 (cycle counts, milliseconds) with ~2.15x resolution.
  std::vector<double> b;
  b.reserve(31);
  for (int k = 0; k <= 30; ++k) b.push_back(1e-3 * std::pow(10.0, k / 3.0));
  return b;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_bounds();
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must be strictly increasing");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  if (!std::isfinite(v) || v < 0.0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::percentile(double p) const {
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n);
  std::int64_t cum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::int64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Interpolate inside (lo, hi]. The overflow bucket has no upper bound;
      // report its lower edge.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      if (i == bounds_.size()) return lo;
      const double hi = bounds_[i];
      const double frac =
          std::clamp((rank - static_cast<double>(cum)) / static_cast<double>(in_bucket), 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cum += in_bucket;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  count_.store(0);
  dropped_.store(0);
  sum_.store(0.0);
}

Registry::Registry() {
  if (const char* env = std::getenv("NODETR_METRICS"); env != nullptr && *env != '\0') {
    export_path_ = env;
  }
  if (const char* env = std::getenv("NODETR_OPENMETRICS"); env != nullptr && *env != '\0') {
    openmetrics_path_ = env;
  }
}

Registry::~Registry() {
  if (!export_path_.empty()) {
    try {
      write_json(export_path_);
      std::fprintf(stderr, "nodetr::obs: wrote metrics to %s\n", export_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nodetr::obs: metrics export failed: %s\n", e.what());
    }
  }
  if (!openmetrics_path_.empty()) {
    try {
      write_openmetrics(openmetrics_path_);
      std::fprintf(stderr, "nodetr::obs: wrote OpenMetrics to %s\n", openmetrics_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nodetr::obs: OpenMetrics export failed: %s\n", e.what());
    }
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string Registry::to_json() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": ";
    append_json_number(os, g->value());
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": " << h->count()
       << ", \"dropped\": " << h->dropped() << ", \"sum\": ";
    append_json_number(os, h->sum());
    os << ", \"mean\": ";
    append_json_number(os, h->mean());
    os << ", \"p50\": ";
    append_json_number(os, h->percentile(50.0));
    os << ", \"p95\": ";
    append_json_number(os, h->percentile(95.0));
    os << ", \"p99\": ";
    append_json_number(os, h->percentile(99.0));
    os << "}";
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

void Registry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("Registry: cannot open " + path);
  out << to_json();
}

std::string Registry::to_openmetrics() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string om = "nodetr_" + sanitize_metric_name(name);
    os << "# TYPE " << om << " counter\n";
    os << om << "_total " << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string om = "nodetr_" + sanitize_metric_name(name);
    os << "# TYPE " << om << " gauge\n";
    os << om << ' ';
    append_om_number(os, g->value());
    os << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string om = "nodetr_" + sanitize_metric_name(name);
    os << "# TYPE " << om << " summary\n";
    for (const double q : {0.5, 0.95, 0.99}) {
      os << om << "{quantile=\"" << q << "\"} ";
      append_om_number(os, h->percentile(q * 100.0));
      os << '\n';
    }
    os << om << "_count " << h->count() << '\n';
    os << om << "_sum ";
    append_om_number(os, h->sum());
    os << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

void Registry::write_openmetrics(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("Registry: cannot open " + path);
  out << to_openmetrics();
}

}  // namespace nodetr::obs

// Process-wide metrics registry (nodetr::obs): named counters, gauges, and
// fixed-bucket histograms with percentile queries and a JSON dump.
//
// Instruments stay cheap on hot paths: a Counter increment is one relaxed
// atomic add, a Histogram observation is a branchless-ish bucket search plus
// two atomic adds. Look instruments up once and cache the reference:
//
//   static auto& chunks = Registry::instance().counter("tensor.pool.chunks");
//   chunks.add(n);
//
// The registry never deletes an instrument, so cached references stay valid
// for the process lifetime. If NODETR_METRICS=<path> is set, the registry
// writes its JSON dump there at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nodetr::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-value gauge.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Buckets are (prev_bound, bound] plus an overflow
/// bucket; percentiles are linearly interpolated inside the winning bucket.
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bucket bounds. An empty list
  /// selects the default geometric grid (1e-3 .. 1e7, ratio ~2.15) suited to
  /// microsecond/millisecond timings and cycle counts.
  explicit Histogram(std::vector<double> bounds = {});

  /// Records `v`. Non-finite or negative samples (a NaN latency, a clock that
  /// went backwards) are rejected and counted in dropped() instead of silently
  /// polluting the percentiles.
  void observe(double v);

  [[nodiscard]] std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Samples rejected by observe() (NaN / infinite / negative).
  [[nodiscard]] std::int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// p in [0, 100]. Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  void reset();

  [[nodiscard]] static std::vector<double> default_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<double> sum_{0.0};
};

/// Name -> instrument registry. Instruments are created on first lookup and
/// live for the process lifetime (stable addresses).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is honoured only on first creation of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,mean,
  /// p50,p95,p99}}} — keys sorted. Non-finite values are emitted as null so
  /// the dump is always strict JSON.
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;

  /// OpenMetrics text exposition (https://openmetrics.io): counters as
  /// `nodetr_<name>_total`, gauges as `nodetr_<name>`, histograms as
  /// summaries (quantile 0.5/0.95/0.99 + _count/_sum), names sanitized to
  /// [a-zA-Z0-9_:], terminated by `# EOF`. If NODETR_OPENMETRICS=<path> is
  /// set it is written there at process exit, alongside the JSON dump.
  [[nodiscard]] std::string to_openmetrics() const;
  void write_openmetrics(const std::string& path) const;

 private:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::string export_path_;       ///< from NODETR_METRICS; written at destruction
  std::string openmetrics_path_;  ///< from NODETR_OPENMETRICS; written at destruction
};

}  // namespace nodetr::obs

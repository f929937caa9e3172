#include "nodetr/tensor/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "nodetr/obs/obs.hpp"

namespace nodetr::tensor {

namespace obs = nodetr::obs;

namespace {
/// Innermost pool whose chunk the current thread is executing (or nullptr).
/// Lets a nested run_chunks on the same pool fall back to serial execution
/// instead of deadlocking on the submission lock.
thread_local const ThreadPool* t_active_pool = nullptr;

/// Sets t_active_pool for one serial run and restores the enclosing value on
/// every exit path, a throwing chunk included.
class ActiveScope {
 public:
  explicit ActiveScope(const ThreadPool* pool) : enclosing_(t_active_pool) {
    t_active_pool = pool;
  }
  ~ActiveScope() { t_active_pool = enclosing_; }
  ActiveScope(const ActiveScope&) = delete;
  ActiveScope& operator=(const ActiveScope&) = delete;

 private:
  const ThreadPool* enclosing_;
};

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// How long an idle thread spins before it parks. Long enough to bridge the
/// gap between the back-to-back fork/joins of one forward pass, short enough
/// that an idle pool stops burning cores almost at once. Not a knob: no
/// caller or test has a reason to set it, and every correctness property
/// holds for any value.
constexpr auto kSpinBudget = std::chrono::microseconds(100);

// Claim word layout: epoch (16 bits) | chunk count (24) | next chunk (24).
// Claiming is CAS(word, word + 1), so a claim succeeds only against the exact
// (epoch, count, next) it read. A wrapped epoch is harmless: a CAS that
// matches the live word claims a real chunk of the live run, and the claimer
// reads that run's function only after its claim.
constexpr int kFieldBits = 24;
constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << kFieldBits) - 1;
constexpr std::uint64_t kEpochMask = 0xFFFF;

constexpr std::uint64_t pack(std::uint64_t epoch, std::uint64_t count) {
  return (epoch << (2 * kFieldBits)) | (count << kFieldBits);
}
constexpr std::uint64_t epoch_of(std::uint64_t w) { return w >> (2 * kFieldBits); }
constexpr std::uint64_t count_of(std::uint64_t w) { return (w >> kFieldBits) & kFieldMask; }
constexpr std::uint64_t next_of(std::uint64_t w) { return w & kFieldMask; }

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin until `done()` or the spin budget runs out; true if `done()`.
template <typename Pred>
bool spin_until(Pred done) {
  if (done()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    cpu_relax();
    if (done()) return true;
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) return false;
  }
}

/// The CPUs the calling thread may run on: its affinity mask's count, so a
/// taskset, cpuset or runner mask sizes the pool. hardware_concurrency
/// counts the machine and is the fallback where the mask cannot be read.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = usable_cpus();
  // The calling thread participates, so spawn n-1 workers.
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::Registry::instance().gauge("tensor.pool.threads").set(static_cast<double>(size()));
}

ThreadPool::~ThreadPool() {
  {
    // Parked workers re-check stop_ under mu_; spinning ones see it directly.
    std::lock_guard lk(mu_);
    stop_.store(true);
    cv_work_.notify_all();
  }
  for (auto& t : workers_) t.join();
}

bool ThreadPool::wait_for_run(std::uint64_t seen) {
  const auto ready = [&] {
    return stop_.load(std::memory_order_relaxed) ||
           epoch_of(claim_.load(std::memory_order_acquire)) != seen;
  };
  if (!spin_until(ready)) {
    static auto& parks = obs::Registry::instance().counter("tensor.pool.parks");
    parks.add();
    std::unique_lock lk(mu_);
    // Seen by a submitter's parked_ check after its claim-word store (both
    // seq_cst), so either the predicate below sees the new run or the
    // submitter takes mu_ and notifies.
    parked_.fetch_add(1);
    cv_work_.wait(lk, [&] { return stop_.load() || epoch_of(claim_.load()) != seen; });
    parked_.fetch_sub(1);
  }
  return !stop_.load();
}

bool ThreadPool::drain(std::uint64_t epoch, bool sample_queue_wait) {
  bool last = false;
  std::uint64_t w = claim_.load(std::memory_order_acquire);
  while (epoch_of(w) == epoch && next_of(w) < count_of(w)) {
    if (!claim_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;  // w now holds the current word
    }
    // The claimed chunk keeps pending_ above zero, so the submitter cannot
    // return and fn_/posted_ns_ are this run's until it finishes.
    if (sample_queue_wait) {
      sample_queue_wait = false;
      if (posted_ns_ != 0) {
        // Queue wait: time from work being posted to this worker picking it
        // up. Only sampled while tracing is enabled (posted_ns_ stays 0
        // otherwise).
        static auto& wait_us = obs::Registry::instance().histogram("tensor.pool.queue_wait_us");
        wait_us.observe(static_cast<double>(obs::Tracer::instance().now_ns() - posted_ns_) / 1e3);
      }
    }
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        (*fn_)(static_cast<std::size_t>(next_of(w)));
      } catch (...) {
        // First exception wins; pending_'s release publishes error_ to the
        // submitter, which reads it only after pending_ reaches zero.
        if (!failed_.exchange(true)) error_ = std::current_exception();
      }
    }
    last = pending_.fetch_sub(1) == 1;
    w = claim_.load(std::memory_order_acquire);
  }
  return last;
}

void ThreadPool::wait_for_done() {
  const auto done = [&] { return pending_.load(std::memory_order_acquire) == 0; };
  if (spin_until(done)) return;
  std::unique_lock lk(mu_);
  caller_parked_.store(true);
  cv_done_.wait(lk, [&] { return pending_.load() == 0; });
  caller_parked_.store(false);
}

void ThreadPool::worker_loop() {
  t_active_pool = this;  // worker threads belong to this pool for life
  std::uint64_t seen = 0;
  while (wait_for_run(seen)) {
    seen = epoch_of(claim_.load(std::memory_order_acquire));
    if (drain(seen, /*sample_queue_wait=*/true) && caller_parked_.load()) {
      std::lock_guard lk(mu_);
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_chunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;
  if (num_chunks > kFieldMask) {
    throw std::length_error("ThreadPool::run_chunks: more than 2^24 - 1 chunks");
  }
  static auto& runs = obs::Registry::instance().counter("tensor.pool.runs");
  static auto& chunks = obs::Registry::instance().counter("tensor.pool.chunks");
  static auto& serial_runs = obs::Registry::instance().counter("tensor.pool.serial_runs");
  chunks.add(static_cast<std::int64_t>(num_chunks));
  if (workers_.empty() || num_chunks == 1 || t_active_pool == this) {
    serial_runs.add();
    // A pool without workers still runs its chunks as tasks, so in_task()
    // reads the same at every pool size. A single chunk is no task: runs it
    // makes may still fork.
    const ActiveScope scope(num_chunks > 1 ? this : t_active_pool);
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  runs.add();
  // One batch in flight at a time; concurrent submitters queue up here.
  std::lock_guard submit_lk(submit_mu_);
  fn_ = &fn;
  posted_ns_ = obs::tracing_enabled() ? obs::Tracer::instance().now_ns() : 0;
  pending_.store(num_chunks, std::memory_order_relaxed);
  // Only submitters write the word's epoch, and they hold submit_mu_.
  const std::uint64_t epoch = (epoch_of(claim_.load(std::memory_order_relaxed)) + 1) & kEpochMask;
  claim_.store(pack(epoch, num_chunks));
  if (parked_.load() > 0) {
    std::lock_guard lk(mu_);
    cv_work_.notify_all();
  }
  // Caller participates too.
  const ThreadPool* enclosing = t_active_pool;
  t_active_pool = this;
  drain(epoch, /*sample_queue_wait=*/false);
  t_active_pool = enclosing;
  wait_for_done();
  fn_ = nullptr;
  if (failed_.load(std::memory_order_relaxed)) {
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

bool ThreadPool::in_task() const { return t_active_pool == this; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(index_t begin, index_t end, const std::function<void(index_t, index_t)>& body,
                  index_t grain) {
  const index_t n = end - begin;
  if (n <= 0) return;
  auto& pool = ThreadPool::global();
  // One chunk per grain-sized unit of work (rounding up), with the pool-derived
  // cap purely as an upper bound on scheduling overhead. The previous floor
  // division (n / grain) meant any loop shorter than two grains ran serially,
  // which silently serialized call sites that picked a large grain.
  const index_t units = ceil_div(n, std::max<index_t>(grain, 1));
  const index_t max_chunks = static_cast<index_t>(pool.size()) * 4;
  const index_t chunks = std::min(std::max<index_t>(units, 1), max_chunks);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  const index_t per = (n + chunks - 1) / chunks;
  pool.run_chunks(static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const index_t lo = begin + static_cast<index_t>(c) * per;
    const index_t hi = std::min(lo + per, end);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace nodetr::tensor

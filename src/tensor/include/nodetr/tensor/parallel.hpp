// Minimal work-sharing primitives: a persistent thread pool and parallel_for.
//
// Kernels in this library are written against parallel_for so they scale on
// multi-core hosts; on a single-core host the pool degrades to serial
// execution with no thread overhead.
//
// The pool is built for many short fork/joins (a batch-1 classifier image
// makes ~150 of them, a few microseconds each), so a run must not pay a
// condvar wake-up per worker:
//   - Spin, then park. After a run, workers spin on the claim word for a fixed
//     time budget (kSpinBudget in parallel.cpp, checked against the clock)
//     before they park on a condvar; the caller likewise spins on the count of
//     unfinished chunks before it parks. A run that follows another within
//     the budget starts without a syscall.
//   - One claim word. Chunks are claimed by CAS on one 64-bit word holding
//     (epoch, chunk count, next chunk). Because the count and the epoch sit in
//     the word the CAS compares, a worker still holding an older run's word
//     can never claim a chunk of a newer run, nor one past its count. The
//     pool mutex guards parking only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "nodetr/tensor/shape.hpp"

namespace nodetr::tensor {

/// Persistent pool of worker threads executing blocking fork-join tasks.
class ThreadPool {
 public:
  /// `num_threads == 0` selects the number of CPUs in the calling thread's
  /// affinity mask (hardware_concurrency() where it cannot be read); 1 means
  /// serial.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers including the calling thread's share.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(chunk_index) for chunk_index in [0, num_chunks) across the pool,
  /// blocking until all chunks finish. The calling thread runs chunks too.
  ///
  /// At most 2^24 - 1 chunks per call (std::length_error otherwise).
  ///
  /// Exceptions: the first exception thrown by any chunk, on any thread, is
  /// captured and rethrown here once every chunk that had started has
  /// finished. Chunks not yet started when it was captured are skipped. The
  /// pool stays usable afterwards.
  ///
  /// Safe to call from multiple threads at once: concurrent batches are
  /// serialized on a submission mutex. A call made from inside a chunk that is
  /// already running on this pool executes serially on the calling thread
  /// (nested fork-join would deadlock against the submission lock).
  void run_chunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn);

  /// True while the calling thread runs a chunk of a run on this pool with
  /// more than one chunk, whether the run forked or ran serially on a pool
  /// without workers. A run_chunks call made then executes serially.
  [[nodiscard]] bool in_task() const;

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Spin, then park, until the claim word carries an epoch other than
  /// `seen` (returns true) or the pool stops (returns false).
  bool wait_for_run(std::uint64_t seen);
  /// Claim and run chunks of run `epoch` until its word is exhausted or
  /// replaced. Returns true if this thread finished the run's last chunk.
  bool drain(std::uint64_t epoch, bool sample_queue_wait);
  /// Block until every chunk of the current run has finished.
  void wait_for_done();

  std::mutex submit_mu_;  ///< serializes whole batches from concurrent callers

  // Written by the submitter before it publishes a run's claim word, read by
  // threads that claimed a chunk of that run.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::uint64_t posted_ns_ = 0;  ///< when the current batch was posted (0 = not sampling)

  // The current run's first chunk exception, written once by the chunk that
  // sets failed_ and read by the submitter after the run.
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};

  alignas(64) std::atomic<std::uint64_t> claim_{0};  ///< epoch | count | next
  alignas(64) std::atomic<std::size_t> pending_{0};  ///< chunks not yet finished
  std::atomic<bool> stop_{false};

  // Parking only: nothing on the run path takes this mutex unless a thread
  // has run out of spin budget.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::atomic<int> parked_{0};        ///< workers waiting on cv_work_
  std::atomic<bool> caller_parked_{false};

  std::vector<std::thread> workers_;  ///< last: threads use every member above
};

/// Split [begin, end) into roughly equal ranges and run body(lo, hi) on the
/// global pool. Grain is the target per-task range: the loop is split into
/// ceil(n / grain) chunks (capped at a small multiple of the pool size), so a
/// loop spanning more than one grain always splits. Loops of at most one
/// grain run serially to avoid overhead.
void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t, index_t)>& body,
                  index_t grain = 1024);

}  // namespace nodetr::tensor

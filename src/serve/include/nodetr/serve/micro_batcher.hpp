// MicroBatcher: coalesces queued requests into dense micro-batches.
//
// Each worker session owns one MicroBatcher over the shared RequestQueue.
// A batch is formed by taking rows in strict FIFO order until either
// `max_batch` rows are collected or the linger window has elapsed since the
// first row was available. Requests larger than the remaining capacity are
// split; the leftover rows are carried worker-locally and lead the worker's
// next batch, so every split request is consumed (and its output assembled)
// by exactly one worker, in row order.
//
// Overload protection hooks:
//   - deadline re-check: a request whose deadline has already passed when it
//     leaves the queue is never placed in a batch — it goes to the expired
//     handler the batcher was built with, which the engine uses to fail it
//     with RequestExpired, so stale work never touches the IP. The fault
//     site "serve.overload.expire" forces this path on a deterministic
//     schedule.
//   - adaptive linger: with `adaptive` set, the linger window scales with
//     queue depth — `min_wait_us` when the queue is idle (an isolated
//     request is not held hostage for rows that are not coming) up to
//     `max_wait_us` under backlog (coalescing is what keeps goodput high at
//     saturation).
#pragma once

#include <functional>
#include <vector>

#include "nodetr/serve/request_queue.hpp"

namespace nodetr::serve {

struct BatcherConfig {
  index_t max_batch = 8;           ///< rows per micro-batch (the BATCH register)
  std::int64_t max_wait_us = 200;  ///< linger for more rows after the first
  /// Scale the linger window with queue depth (see file comment).
  bool adaptive = false;
  std::int64_t min_wait_us = 0;    ///< adaptive linger floor (idle queue)
};

/// A contiguous span of one request's rows placed inside a micro-batch.
struct BatchSlice {
  RequestPtr request;
  index_t row_begin = 0;  ///< first row of request->input in this slice
  index_t row_end = 0;    ///< one past the last row
  index_t batch_row = 0;  ///< destination row inside the batch tensor
};

struct MicroBatch {
  Tensor input;  ///< (rows, D, H, W), rows <= max_batch
  std::vector<BatchSlice> slices;
  [[nodiscard]] index_t rows() const { return input.rank() == 4 ? input.dim(0) : 0; }
};

class MicroBatcher {
 public:
  /// Receives, on the worker thread and at the moment of shedding, each
  /// request whose deadline had already passed when it left the queue.
  /// Invoking eagerly matters: next() may block on an empty queue right after
  /// shedding, so a drain-after-return scheme would leave the victim's future
  /// unresolved until more traffic arrives. Must be callable.
  using ExpiredHandler = std::function<void(RequestPtr)>;

  MicroBatcher(RequestQueue& queue, BatcherConfig config, ExpiredHandler on_expired);

  /// Coalesce the next micro-batch, blocking until at least one row is
  /// available. Returns false once the queue is closed and drained and no
  /// carried-over rows remain — the worker's signal to exit.
  ///
  /// Exception safety: if assembly fails (allocation failure, injected via
  /// the "serve.alloc" fault site), no popped request is lost — they are
  /// parked in the orphan list (and the carry cleared into it) for the
  /// supervisor to requeue or fail, then the exception is rethrown.
  [[nodiscard]] bool next(MicroBatch& out);

  /// Requests popped by a next() call that subsequently threw: they are in
  /// neither the queue nor any returned batch. The supervisor must requeue
  /// or fail each one (see InferenceEngine's salvage path). Fetching clears
  /// the list. Ordered as popped (FIFO).
  [[nodiscard]] std::vector<RequestPtr> take_orphans();

  /// Steal the worker-local carry (nullptr if none) so a supervisor can
  /// salvage it when the worker dies between batches.
  [[nodiscard]] RequestPtr take_carry();

  /// Pure planning core (also exercised by the property tests): pack the
  /// given request row counts, all pending at once, into batches of at most
  /// `max_batch` rows. Requests are consumed in order, rows in order, and
  /// oversized requests are split across consecutive batches.
  struct PlanSlice {
    std::size_t request = 0;
    index_t row_begin = 0;
    index_t row_end = 0;
  };
  [[nodiscard]] static std::vector<std::vector<PlanSlice>> plan(
      const std::vector<index_t>& request_rows, index_t max_batch);

  [[nodiscard]] const BatcherConfig& config() const { return config_; }

  /// The linger window next() would use right now (µs) — `max_wait_us`
  /// unless adaptive, else scaled by current queue depth. Exposed for tests.
  [[nodiscard]] std::int64_t effective_wait_us() const;

 private:
  /// True if the request may enter a batch; expired requests (or those hit
  /// by the "serve.overload.expire" site) go to the expired handler instead.
  [[nodiscard]] bool admissible(RequestPtr& r);

  RequestQueue& queue_;
  BatcherConfig config_;
  ExpiredHandler on_expired_;
  RequestPtr carry_;       ///< partially consumed request (worker-local)
  index_t carry_row_ = 0;  ///< next unconsumed row of carry_
  std::vector<RequestPtr> orphans_;  ///< popped by a failed next(); see take_orphans()
};

}  // namespace nodetr::serve

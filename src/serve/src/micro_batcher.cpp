#include "nodetr/serve/micro_batcher.hpp"

#include <algorithm>
#include <cstring>

#include "nodetr/fault/fault.hpp"
#include "nodetr/obs/flight_recorder.hpp"

namespace nodetr::serve {

MicroBatcher::MicroBatcher(RequestQueue& queue, BatcherConfig config, ExpiredHandler on_expired)
    : queue_(queue), config_(config), on_expired_(std::move(on_expired)) {
  if (config_.max_batch < 1) throw std::invalid_argument("MicroBatcher: max_batch must be >= 1");
  if (config_.max_wait_us < 0) throw std::invalid_argument("MicroBatcher: max_wait_us must be >= 0");
  if (config_.min_wait_us < 0) throw std::invalid_argument("MicroBatcher: min_wait_us must be >= 0");
  if (config_.adaptive && config_.min_wait_us > config_.max_wait_us) {
    throw std::invalid_argument("MicroBatcher: min_wait_us must be <= max_wait_us");
  }
}

bool MicroBatcher::admissible(RequestPtr& r) {
  const bool forced = fault::fire("serve.overload.expire");
  if (!forced && !r->expired(std::chrono::steady_clock::now())) return true;
  if (forced && !r->has_deadline()) {
    // The injected expiry needs a deadline to have passed; synthesize one so
    // the engine's expiry path (and its error message) stays uniform.
    r->deadline = r->enqueued_at;
  }
  on_expired_(std::move(r));
  return false;
}

std::int64_t MicroBatcher::effective_wait_us() const {
  if (!config_.adaptive) return config_.max_wait_us;
  // Idle queue: lingering cannot fill the batch, it only adds tail latency.
  // Backlog: linger the full window so batches leave dense. In between,
  // scale linearly with depth.
  const auto depth = static_cast<index_t>(queue_.size());
  if (depth == 0) return config_.min_wait_us;
  if (depth >= config_.max_batch) return config_.max_wait_us;
  return config_.min_wait_us +
         (config_.max_wait_us - config_.min_wait_us) * depth / config_.max_batch;
}

bool MicroBatcher::next(MicroBatch& out) {
  RequestPtr current = std::move(carry_);
  index_t current_row = carry_row_;
  carry_.reset();
  carry_row_ = 0;
  while (!current) {
    current = queue_.pop();
    if (!current) return false;  // closed and drained
    if (!admissible(current)) continue;  // expired in queue; handed to the engine
    current_row = 0;
  }
  const std::int64_t wait_us = effective_wait_us();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(wait_us);

  std::vector<BatchSlice> slices;
  try {
    index_t rows = 0;
    for (;;) {
      const index_t take =
          std::min(config_.max_batch - rows, current->input.dim(0) - current_row);
      slices.push_back({current, current_row, current_row + take, rows});
      rows += take;
      current_row += take;
      if (current_row < current->input.dim(0)) {
        // Batch is full mid-request; the remainder leads this worker's next one.
        obs::flight_event(current->trace_id, obs::FlightKind::kCarried,
                          current->input.dim(0) - current_row);
        carry_ = std::move(current);
        carry_row_ = current_row;
        break;
      }
      if (rows >= config_.max_batch) break;
      RequestPtr nxt;
      for (;;) {
        nxt = queue_.try_pop();
        if (!nxt && wait_us > 0) nxt = queue_.pop_until(deadline);
        if (!nxt || admissible(nxt)) break;  // expired pops don't consume rows
      }
      if (!nxt) break;  // nothing more within the linger window
      current = std::move(nxt);
      current_row = 0;
    }

    if (fault::fire("serve.alloc")) throw fault::AllocationFault("serve.alloc");
    const Shape& s = slices.front().request->input.shape();
    const index_t row_floats = s.dim(1) * s.dim(2) * s.dim(3);
    out.input = Tensor(Shape{rows, s.dim(1), s.dim(2), s.dim(3)});
    for (const BatchSlice& sl : slices) {
      const float* src = sl.request->input.data() + sl.row_begin * row_floats;
      float* dst = out.input.data() + sl.batch_row * row_floats;
      std::memcpy(dst, src,
                  static_cast<std::size_t>((sl.row_end - sl.row_begin) * row_floats) *
                      sizeof(float));
    }
    out.slices = std::move(slices);
    return true;
  } catch (...) {
    // Park every request this call popped (slices, the one in hand, and any
    // carry it created) so the supervisor can requeue or fail them — a lost
    // request would mean a future that never resolves.
    for (BatchSlice& sl : slices) {
      if (orphans_.empty() || orphans_.back() != sl.request) {
        orphans_.push_back(std::move(sl.request));
      }
    }
    if (current && (orphans_.empty() || orphans_.back() != current)) {
      orphans_.push_back(std::move(current));
    }
    if (carry_ && (orphans_.empty() || orphans_.back() != carry_)) {
      orphans_.push_back(std::move(carry_));
    }
    carry_.reset();
    carry_row_ = 0;
    throw;
  }
}

std::vector<RequestPtr> MicroBatcher::take_orphans() {
  std::vector<RequestPtr> out = std::move(orphans_);
  orphans_.clear();
  return out;
}

RequestPtr MicroBatcher::take_carry() {
  carry_row_ = 0;
  return std::move(carry_);
}

std::vector<std::vector<MicroBatcher::PlanSlice>> MicroBatcher::plan(
    const std::vector<index_t>& request_rows, index_t max_batch) {
  if (max_batch < 1) throw std::invalid_argument("MicroBatcher::plan: max_batch must be >= 1");
  std::vector<std::vector<PlanSlice>> batches;
  std::vector<PlanSlice> cur;
  index_t rows = 0;
  for (std::size_t r = 0; r < request_rows.size(); ++r) {
    index_t row = 0;
    while (row < request_rows[r]) {
      const index_t take = std::min(max_batch - rows, request_rows[r] - row);
      cur.push_back({r, row, row + take});
      rows += take;
      row += take;
      if (rows == max_batch) {
        batches.push_back(std::move(cur));
        cur.clear();
        rows = 0;
      }
    }
  }
  if (!cur.empty()) batches.push_back(std::move(cur));
  return batches;
}

}  // namespace nodetr::serve

// MicroBatcher tests: a seeded property sweep over ~1k random schedules
// against the pure planning core, plus live coalescing over a RequestQueue.
#include "nodetr/serve/micro_batcher.hpp"

#include <gtest/gtest.h>

#include <random>

namespace serve = nodetr::serve;
namespace nt = nodetr::tensor;
using nt::index_t;

namespace {

serve::RequestPtr make_request(std::uint64_t id, index_t rows, index_t d, index_t h,
                               index_t w) {
  auto r = std::make_shared<serve::Request>();
  r->id = id;
  r->input = nt::Tensor(nt::Shape{rows, d, h, w});
  const index_t row_floats = d * h * w;
  for (index_t row = 0; row < rows; ++row) {
    for (index_t i = 0; i < row_floats; ++i) {
      r->input.data()[row * row_floats + i] =
          static_cast<float>(id) * 100.0f + static_cast<float>(row);
    }
  }
  r->enqueued_at = std::chrono::steady_clock::now();
  return r;
}

// No request in these tests carries a deadline, so nothing may be shed.
void no_expiry(serve::RequestPtr r) { ADD_FAILURE() << "request " << r->id << " shed"; }

}  // namespace

TEST(MicroBatcherPlan, RandomSchedulesPreserveOrderAndNeverExceedMaxBatch) {
  for (unsigned seed = 0; seed < 1000; ++seed) {
    std::mt19937 gen(seed);
    std::uniform_int_distribution<int> n_req(0, 12);
    std::uniform_int_distribution<int> rows_dist(1, 20);
    std::uniform_int_distribution<int> mb_dist(1, 9);
    const index_t max_batch = mb_dist(gen);
    std::vector<index_t> rows(static_cast<std::size_t>(n_req(gen)));
    for (auto& r : rows) r = rows_dist(gen);
    index_t total = 0;
    for (auto r : rows) total += r;

    const auto batches = serve::MicroBatcher::plan(rows, max_batch);

    // Walk every slice in emission order: strict FIFO over requests, strict
    // row order inside each request, every row covered exactly once.
    std::size_t cur_req = 0;
    index_t cur_row = 0;
    index_t seen = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      ASSERT_FALSE(batches[b].empty()) << "seed " << seed;
      index_t batch_rows = 0;
      for (const auto& sl : batches[b]) {
        ASSERT_EQ(sl.request, cur_req) << "seed " << seed;
        ASSERT_EQ(sl.row_begin, cur_row) << "seed " << seed;
        ASSERT_LT(sl.row_begin, sl.row_end) << "seed " << seed;
        ASSERT_LE(sl.row_end, rows[sl.request]) << "seed " << seed;
        batch_rows += sl.row_end - sl.row_begin;
        seen += sl.row_end - sl.row_begin;
        cur_row = sl.row_end;
        if (cur_row == rows[cur_req]) {
          ++cur_req;
          cur_row = 0;
        }
      }
      ASSERT_LE(batch_rows, max_batch) << "seed " << seed;
      // Greedy packing: every batch except possibly the last is full.
      if (b + 1 < batches.size()) {
        ASSERT_EQ(batch_rows, max_batch) << "seed " << seed;
      }
    }
    ASSERT_EQ(seen, total) << "seed " << seed;
    ASSERT_EQ(cur_req, rows.size()) << "seed " << seed;
  }
}

TEST(MicroBatcherPlan, RejectsNonPositiveMaxBatch) {
  EXPECT_THROW((void)serve::MicroBatcher::plan({1, 2}, 0), std::invalid_argument);
}

TEST(MicroBatcher, DrainsClosedQueueCoveringAllRowsInOrder) {
  const index_t d = 2, h = 1, w = 2;
  const index_t row_floats = d * h * w;
  const std::vector<index_t> rows = {5, 1, 3, 8, 2, 1};
  serve::RequestQueue queue(64, serve::BackpressurePolicy::kBlock);
  for (std::size_t q = 0; q < rows.size(); ++q) {
    ASSERT_EQ(queue.push(make_request(q, rows[q], d, h, w)), serve::PushResult::kOk);
  }
  queue.close();

  serve::MicroBatcher batcher(queue, {/*max_batch=*/4, /*max_wait_us=*/0}, no_expiry);
  serve::MicroBatch batch;
  std::size_t cur_req = 0;
  index_t cur_row = 0;
  index_t seen = 0;
  while (batcher.next(batch)) {
    ASSERT_GE(batch.rows(), 1);
    ASSERT_LE(batch.rows(), 4);
    index_t batch_row = 0;
    for (const auto& sl : batch.slices) {
      ASSERT_EQ(sl.request->id, cur_req);
      ASSERT_EQ(sl.row_begin, cur_row);
      ASSERT_EQ(sl.batch_row, batch_row);
      // The dense batch tensor holds exactly the source rows, in order.
      for (index_t row = sl.row_begin; row < sl.row_end; ++row) {
        const float want = static_cast<float>(cur_req) * 100.0f + static_cast<float>(row);
        for (index_t i = 0; i < row_floats; ++i) {
          ASSERT_EQ(batch.input.data()[(sl.batch_row + row - sl.row_begin) * row_floats + i],
                    want);
        }
      }
      batch_row += sl.row_end - sl.row_begin;
      seen += sl.row_end - sl.row_begin;
      cur_row = sl.row_end;
      if (cur_row == sl.request->input.dim(0)) {
        ++cur_req;
        cur_row = 0;
      }
    }
  }
  index_t total = 0;
  for (auto r : rows) total += r;
  EXPECT_EQ(seen, total);
  EXPECT_EQ(cur_req, rows.size());
}

TEST(MicroBatcher, ZeroWaitDoesNotLingerButTakesAlreadyQueuedRows) {
  const index_t d = 2, h = 1, w = 2;
  serve::RequestQueue queue(16, serve::BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.push(make_request(0, 1, d, h, w)), serve::PushResult::kOk);
  ASSERT_EQ(queue.push(make_request(1, 1, d, h, w)), serve::PushResult::kOk);
  ASSERT_EQ(queue.push(make_request(2, 1, d, h, w)), serve::PushResult::kOk);

  serve::MicroBatcher batcher(queue, {/*max_batch=*/4, /*max_wait_us=*/0}, no_expiry);
  serve::MicroBatch batch;
  ASSERT_TRUE(batcher.next(batch));
  // All three queued rows coalesce; with max_wait_us=0 the batcher must not
  // block waiting for a fourth.
  EXPECT_EQ(batch.rows(), 3);
  EXPECT_EQ(batch.slices.size(), 3u);
}

TEST(MicroBatcher, RejectsBadConfig) {
  serve::RequestQueue queue(4, serve::BackpressurePolicy::kBlock);
  EXPECT_THROW(serve::MicroBatcher(queue, {0, 0}, no_expiry), std::invalid_argument);
  EXPECT_THROW(serve::MicroBatcher(queue, {4, -1}, no_expiry), std::invalid_argument);
}

#include "nodetr/tensor/parallel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "nodetr/obs/obs.hpp"

namespace nt = nodetr::tensor;
namespace obs = nodetr::obs;

TEST(ThreadPool, SerialPoolRunsAllChunks) {
  nt::ThreadPool pool(1);
  std::vector<int> hits(10, 0);
  pool.run_chunks(10, [&](std::size_t c) { hits[c]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, MultiThreadedPoolCoversAllChunksExactlyOnce) {
  nt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_chunks(100, [&](std::size_t c) { hits[c]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  nt::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.run_chunks(7, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 35);
}

TEST(ThreadPool, ZeroChunksIsNoop) {
  nt::ThreadPool pool(2);
  bool ran = false;
  pool.run_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ConcurrentSubmittersEachCoverTheirChunksOnce) {
  // Serving workers submit fork-join batches to the shared pool from several
  // threads at once; batches must serialize, not interleave or race.
  nt::ThreadPool pool(4);
  constexpr int kSubmitters = 6, kRounds = 25, kChunks = 16;
  std::vector<std::atomic<int>> hits(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int r = 0; r < kRounds; ++r) {
        pool.run_chunks(kChunks, [&](std::size_t) { hits[static_cast<std::size_t>(s)]++; });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), kRounds * kChunks);
}

TEST(ThreadPool, NestedSubmissionFallsBackToSerial) {
  // A chunk that re-enters the same pool must not deadlock on the
  // submission lock; the nested batch runs serially on the calling thread.
  nt::ThreadPool pool(3);
  std::atomic<int> inner{0};
  pool.run_chunks(3, [&](std::size_t) {
    pool.run_chunks(4, [&](std::size_t) { inner++; });
  });
  EXPECT_EQ(inner.load(), 12);
}

// in_task() holds in every chunk of a multi-chunk run, forked or serial, and
// is cleared afterwards, a throwing serial chunk included.
TEST(ThreadPool, InTaskHoldsInsideMultiChunkRunsOnly) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    nt::ThreadPool pool(threads);
    EXPECT_FALSE(pool.in_task());
    std::atomic<int> inside{0};
    pool.run_chunks(6, [&](std::size_t) { inside += pool.in_task() ? 1 : 0; });
    EXPECT_EQ(inside.load(), 6) << threads << " threads";
    pool.run_chunks(1, [&](std::size_t) { EXPECT_FALSE(pool.in_task()); });
    EXPECT_THROW(pool.run_chunks(2, [](std::size_t) { throw std::runtime_error("chunk"); }),
                 std::runtime_error);
    EXPECT_FALSE(pool.in_task()) << threads << " threads";
    EXPECT_FALSE(nt::ThreadPool::global().in_task());
  }
}

TEST(ThreadPool, ExceptionFromAnyChunkIsRethrownAndPoolStaysUsable) {
  nt::ThreadPool pool(4);
  auto& serial_runs = obs::Registry::instance().counter("tensor.pool.serial_runs");
  try {
    pool.run_chunks(16, [](std::size_t c) {
      if (c == 5) throw std::runtime_error("chunk 5");
    });
    ADD_FAILURE() << "run_chunks swallowed the chunk's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "chunk 5");
  }
  // The next run covers every chunk exactly once and still forks: the throw
  // left no nested-call marker behind on this thread.
  const std::int64_t serial_before = serial_runs.value();
  std::vector<std::atomic<int>> hits(16);
  pool.run_chunks(16, [&](std::size_t c) { hits[c]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(serial_runs.value(), serial_before);
}

TEST(ThreadPool, ExceptionsOnWorkerThreadsReachTheCaller) {
  // Every chunk throws, so whichever thread claims a chunk throws; a throw on
  // a worker thread must be carried to the caller, never terminate.
  nt::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    EXPECT_THROW(pool.run_chunks(8, [](std::size_t) { throw std::logic_error("every chunk"); }),
                 std::logic_error);
  }
  std::atomic<int> total{0};
  pool.run_chunks(8, [&](std::size_t) { total++; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, RejectsMoreChunksThanTheClaimWordHolds) {
  nt::ThreadPool pool(2);
  bool ran = false;
  EXPECT_THROW(pool.run_chunks(std::size_t{1} << 24, [&](std::size_t) { ran = true; }),
               std::length_error);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, BackToBackRunsFromTwoSubmittersClaimOnlyTheirOwnChunks) {
  // Runs follow each other inside the spin window with a chunk count that
  // changes every run. A worker still holding the previous run's claim word
  // must never claim an index past the new run's count, nor one twice.
  nt::ThreadPool pool(4);
  constexpr std::array<std::size_t, 5> kCounts = {2, 17, 3, 64, 5};
  constexpr int kRunsPerSubmitter = 10'000;
  std::array<std::atomic<int>, 2> bad{};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < 2; ++s) {
    submitters.emplace_back([&, s] {
      std::vector<std::atomic<int>> hits(64);
      for (int r = 0; r < kRunsPerSubmitter; ++r) {
        const std::size_t n = kCounts[static_cast<std::size_t>(r) % kCounts.size()];
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        pool.run_chunks(n, [&](std::size_t c) {
          if (c >= n) {
            bad[s]++;
          } else {
            hits[c]++;
          }
        });
        for (std::size_t c = 0; c < n; ++c) {
          if (hits[c].load(std::memory_order_relaxed) != 1) bad[s]++;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(bad[0].load(), 0);
  EXPECT_EQ(bad[1].load(), 0);
}

TEST(ThreadPool, RunAfterIdleGapCoversAllChunksAndWorkersPark) {
  auto& parks = obs::Registry::instance().counter("tensor.pool.parks");
  const std::int64_t parks_before = parks.value();
  nt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  pool.run_chunks(32, [&](std::size_t c) { hits[c]++; });
  // Far longer than the spin budget: the workers give up spinning and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.run_chunks(32, [&](std::size_t c) { hits[c]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
  // Lower bound only, and waited for rather than timed: an idle worker parks
  // once its budget has passed, however late the scheduler runs it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (parks.value() == parks_before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(parks.value(), parks_before);
}

TEST(ThreadPool, DestroyedWhileWorkersSpinDoesNotHang) {
  std::atomic<int> total{0};
  for (int i = 0; i < 500; ++i) {
    nt::ThreadPool pool(4);
    pool.run_chunks(8, [&](std::size_t) { total++; });
  }  // each destructor runs inside its workers' spin window
  EXPECT_EQ(total.load(), 500 * 8);
}

#if defined(__linux__)
// A default pool spawns one thread per CPU it may use, not per CPU in the
// machine: under a one-CPU mask it is serial. The mask is narrowed on this
// thread only (a new thread inherits its creator's), then restored, and a
// pool built after that spans the whole mask again.
TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
  cpu_set_t full;
  CPU_ZERO(&full);
  ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
  int first = 0;
  while (!CPU_ISSET(first, &full)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  auto& threads = obs::Registry::instance().gauge("tensor.pool.threads");
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  {
    nt::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(threads.value(), 1.0);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);
  const auto cpus = static_cast<std::size_t>(CPU_COUNT(&full));
  nt::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), cpus);
  EXPECT_EQ(threads.value(), static_cast<double>(cpus));
}
#endif

TEST(ParallelFor, ConcurrentCallersComputeCorrectSums) {
  // parallel_for rides on the global pool; hammer it from several threads.
  constexpr int kCallers = 5;
  std::vector<long long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<long long> sum{0};
        nt::parallel_for(0, 4096, [&](nt::index_t lo, nt::index_t hi) {
          long long local = 0;
          for (nt::index_t i = lo; i < hi; ++i) local += i;
          sum += local;
        }, /*grain=*/64);
        sums[static_cast<std::size_t>(t)] = sum.load();
      }
    });
  }
  for (auto& c : callers) c.join();
  for (long long s : sums) EXPECT_EQ(s, 4096LL * 4095 / 2);
}

TEST(ParallelFor, CoversFullRange) {
  std::vector<std::atomic<int>> hits(1000);
  nt::parallel_for(0, 1000, [&](nt::index_t lo, nt::index_t hi) {
    for (nt::index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  }, /*grain=*/10);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  nt::parallel_for(5, 5, [&](nt::index_t, nt::index_t) { ran = true; });
  EXPECT_FALSE(ran);
  nt::parallel_for(5, 3, [&](nt::index_t, nt::index_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, RespectsOffsetBegin) {
  std::atomic<long> sum{0};
  nt::parallel_for(10, 20, [&](nt::index_t lo, nt::index_t hi) {
    long local = 0;
    for (nt::index_t i = lo; i < hi; ++i) local += i;
    sum += local;
  }, /*grain=*/2);
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, ParallelSumMatchesSerial) {
  std::vector<double> v(4096);
  std::iota(v.begin(), v.end(), 0.0);
  std::atomic<long long> psum{0};
  nt::parallel_for(0, static_cast<nt::index_t>(v.size()), [&](nt::index_t lo, nt::index_t hi) {
    long long local = 0;
    for (nt::index_t i = lo; i < hi; ++i) local += static_cast<long long>(v[static_cast<std::size_t>(i)]);
    psum += local;
  }, /*grain=*/64);
  EXPECT_EQ(psum.load(), 4096LL * 4095 / 2);
}

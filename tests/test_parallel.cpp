// Unit tests for the parallel runtime: pool, loops, reduce, sort, scan.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/parallel_sort.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/thread_pool.hpp"

namespace pooled {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 10000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_tasks(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_tasks(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadedPoolExecutesInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.run_tasks(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, NestedRunTasksExecutesInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.run_tasks(8, [&](std::size_t) {
    pool.run_tasks(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ConsecutiveBatchesDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t count = 100 + static_cast<std::size_t>(round);
    pool.run_tasks(count, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), count * (count - 1) / 2);
  }
}

TEST(ThreadPool, BatchRunsOnAtMostCountLanes) {
  // The entry-statistics pass caps its record blocks below the pool width
  // and runs one task per block; it relies on a batch of `count` tasks
  // claiming at most `count` distinct lane ids.
  ThreadPool pool(4);
  for (std::size_t count = 1; count <= 3; ++count) {
    for (int batch = 0; batch < 200; ++batch) {
      std::atomic<unsigned> lanes_seen{0};  // bit per lane id
      pool.run_tasks(count, [&](std::size_t) {
        lanes_seen.fetch_or(1u << ThreadPool::current_lane());
        std::this_thread::yield();
      });
      ASSERT_LE(static_cast<std::size_t>(std::popcount(lanes_seen.load())), count);
    }
  }
}

TEST(ThreadPool, TaskExceptionReachesTheCaller) {
  // Only workers throw: the caller's first task holds on until one has,
  // so the throw happens on a worker lane. run_tasks rethrows it on the
  // caller once no worker is inside the batch.
  ThreadPool pool(4);
  std::atomic<bool> thrown{false};
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_THROW(pool.run_tasks(64,
                              [&](std::size_t) {
                                if (ThreadPool::current_lane() != 0) {
                                  thrown.store(true);
                                  throw std::runtime_error("worker task failed");
                                }
                                while (!thrown.load() &&
                                       std::chrono::steady_clock::now() < give_up) {
                                  std::this_thread::yield();
                                }
                              }),
               std::runtime_error);
  EXPECT_TRUE(thrown.load());
  // The pool is intact: the next batch runs every task exactly once.
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_tasks(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> hits{0};
  ThreadPool::global().run_tasks(16, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 50000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(pool, 0, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RespectsRangeBounds) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  parallel_for(pool, 100, 200, [&](std::size_t i) {
    EXPECT_GE(i, 100u);
    EXPECT_LT(i, 200u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
  parallel_for(pool, 5, 5, [&](std::size_t) { FAIL(); });
  parallel_for(pool, 6, 5, [&](std::size_t) { FAIL(); });
}

TEST(ParallelForChunked, ChunksCoverRangeDisjointly) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for_chunked(pool, 0, hits.size(), 64,
                       [&](std::size_t lo, std::size_t hi) {
                         EXPECT_LT(lo, hi);
                         for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                       });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 123457;
  const auto result = parallel_reduce<std::uint64_t>(
      pool, 0, kCount, 0,
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t acc = 0;
        for (std::size_t i = lo; i < hi; ++i) acc += i;
        return acc;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(result, static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  const auto result = parallel_reduce<int>(
      pool, 10, 10, -7, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, -7);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  ThreadPool pool(4);
  // Floating-point combination order must be fixed by chunk index.
  const auto run = [&] {
    return parallel_reduce<double>(
        pool, 0, 100000, 0.0,
        [](std::size_t lo, std::size_t hi) {
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) acc += 1.0 / (1.0 + static_cast<double>(i));
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  const double first = run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run(), first);
}

class ParallelSortSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSortSizes, SortsLikeStdSort) {
  ThreadPool pool(4);
  std::mt19937_64 gen(GetParam());
  std::vector<std::uint64_t> values(GetParam());
  for (auto& v : values) v = gen();
  auto expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_sort(pool, values.begin(), values.end());
  EXPECT_EQ(values, expected);
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, ParallelSortSizes,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097,
                                           10000, 100000, 250001));

TEST(ParallelSort, CustomComparator) {
  ThreadPool pool(4);
  std::vector<int> values(20000);
  std::mt19937 gen(5);
  for (auto& v : values) v = static_cast<int>(gen() % 1000);
  parallel_sort(pool, values.begin(), values.end(), std::greater<>());
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end(), std::greater<>()));
}

TEST(ParallelSort, AlreadySortedAndReversed) {
  ThreadPool pool(4);
  std::vector<int> ascending(50000);
  std::iota(ascending.begin(), ascending.end(), 0);
  auto copy = ascending;
  parallel_sort(pool, copy.begin(), copy.end());
  EXPECT_EQ(copy, ascending);
  std::vector<int> descending(ascending.rbegin(), ascending.rend());
  parallel_sort(pool, descending.begin(), descending.end());
  EXPECT_EQ(descending, ascending);
}

class PrefixSumSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixSumSizes, MatchesSequentialExclusiveScan) {
  ThreadPool pool(4);
  std::mt19937_64 gen(GetParam() + 1);
  std::vector<std::uint64_t> values(GetParam());
  for (auto& v : values) v = gen() % 1000;
  std::vector<std::uint64_t> expected(values.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    expected[i] = running;
    running += values[i];
  }
  auto scanned = values;
  const std::uint64_t total = parallel_exclusive_scan(pool, scanned);
  EXPECT_EQ(total, running);
  EXPECT_EQ(scanned, expected);
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, PrefixSumSizes,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097,
                                           50000, 123456));

}  // namespace
}  // namespace pooled

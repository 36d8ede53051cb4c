// Unit tests for the parallel runtime: pool, loops, reduce, sort, scan.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/parallel_sort.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

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

// ---- batches an owner keeps open (start / extend / claim / finish) -------

/// Claims, in order, every index of `batch` below `count` that no worker
/// has claimed, and runs it on the calling thread.
void drain(ThreadPool& pool, ThreadPool::Batch& batch, std::size_t count,
           const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    if (pool.claim(batch, i)) fn(i);
  }
}

TEST(ThreadPool, StartedBatchRunsEveryTaskOnce) {
  // The owner opens ten tasks, then makes ten more claimable at a time
  // and claims whatever no worker has taken: every task runs exactly
  // once, workers included, and none runs past finish().
  for (const unsigned width : {2u, 4u, 7u}) {
    ThreadPool pool(width);
    for (int round = 0; round < 50; ++round) {
      constexpr std::size_t kTasks = 200;
      std::vector<std::atomic<int>> hits(kTasks);
      std::atomic<bool> finished{false};
      std::atomic<int> late{0};
      const std::function<void(std::size_t)> fn = [&](std::size_t i) {
        if (finished.load()) late.fetch_add(1);
        hits[i].fetch_add(1);
      };
      ThreadPool::Batch batch;
      pool.start(batch, 10, fn);
      for (std::size_t count = 10; count <= kTasks; count += 10) {
        pool.extend(batch, count);
        pool.extend(batch, count - 5);  // never lowers the count
        if (count % 30 == 0) drain(pool, batch, count, fn);
      }
      drain(pool, batch, kTasks, fn);
      pool.finish(batch);
      finished.store(true);
      for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
      EXPECT_EQ(late.load(), 0);
    }
  }
}

TEST(ThreadPool, FinishedBatchHandsOutNothingMore) {
  // finish() closes the batch: indices never claimed never run, and
  // neither extend() nor claim() reopens it.
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) { hits.fetch_add(1); };
  ThreadPool::Batch batch;
  pool.start(batch, 0, fn);
  pool.finish(batch);
  pool.extend(batch, 100);
  EXPECT_FALSE(pool.claim(batch, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(hits.load(), 0);
}

TEST(ThreadPool, StartedBatchNestsInline) {
  // Workers run a started batch's tasks (the owner claims none), and
  // their nested run_tasks calls run inline on their own lane. A batch
  // cannot be started where no worker could join it: inside a task, or
  // on a one-thread pool.
  ThreadPool pool(4);
  constexpr int kTasks = 16;
  std::atomic<int> done{0};
  std::atomic<int> nested{0};
  std::atomic<int> moved{0};
  std::atomic<int> refused{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) {
    const unsigned lane = ThreadPool::current_lane();
    pool.run_tasks(8, [&](std::size_t) {
      nested.fetch_add(1);
      if (ThreadPool::current_lane() != lane) moved.fetch_add(1);
    });
    ThreadPool::Batch inner;
    try {
      pool.start(inner, 1, fn);
      pool.finish(inner);
    } catch (const ContractError&) {
      refused.fetch_add(1);
    }
    done.fetch_add(1);
  };
  ThreadPool::Batch batch;
  pool.start(batch, kTasks, fn);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (done.load() < kTasks && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  pool.finish(batch);
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(nested.load(), kTasks * 8);
  EXPECT_EQ(moved.load(), 0);
  EXPECT_EQ(refused.load(), kTasks);
  ThreadPool single(1);
  ThreadPool::Batch lone;
  EXPECT_THROW(single.start(lone, 1, fn), ContractError);
}

TEST(ThreadPool, StartedBatchExceptionReachesFinish) {
  // Only workers throw; the owner claims nothing, waits until one has
  // thrown, and finish() rethrows it. The pool stays intact.
  ThreadPool pool(4);
  std::atomic<bool> thrown{false};
  const std::function<void(std::size_t)> fn = [&](std::size_t) {
    thrown.store(true);
    throw std::runtime_error("worker task failed");
  };
  ThreadPool::Batch batch;
  pool.start(batch, 64, fn);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!thrown.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(thrown.load());
  EXPECT_THROW(pool.finish(batch), std::runtime_error);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_tasks(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, OwnerRunsBatchesWhileHoldingOne) {
  // The owner of an open batch calls run_tasks meanwhile: its own batches
  // complete (the owner runs their tasks itself if workers are busy in
  // the open batch), and the open batch still runs every task once.
  ThreadPool pool(4);
  constexpr std::size_t kSlow = 12;
  std::vector<std::atomic<int>> hits(kSlow);
  const std::function<void(std::size_t)> slow = [&](std::size_t i) {
    hits[i].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  ThreadPool::Batch batch;
  pool.start(batch, kSlow, slow);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_tasks(100, [&](std::size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 100u * 99 / 2);
  }
  drain(pool, batch, kSlow, slow);
  pool.finish(batch);
  for (std::size_t i = 0; i < kSlow; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
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

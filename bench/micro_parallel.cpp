// MICRO: parallel runtime primitives -- batch dispatch overhead,
// parallel_for/reduce scaling, parallel sort and scan vs. thread count,
// and several callers sharing one pool. On a single-core container these
// quantify the runtime's overhead; on a multi-core host they show the
// speedup of the Algorithm-1 pipeline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/serialize.hpp"
#include "core/thresholds.hpp"
#include "engine/batch_engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_sort.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/xoshiro256pp.hpp"

namespace {

using namespace pooled;

void BM_PoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    pool.run_tasks(64, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_ConcurrentCallers(benchmark::State& state) {
  // The serve shape without a server: each caller thread runs mn jobs at
  // n=10^4 (m = 1.4 m_MN = 806, cache off) back to back, each job
  // rebuilding its instance, decoding and checking the verdict. Shared:
  // every caller on one 4-wide pool, as socket sessions are. Private:
  // each caller on its own one-thread pool, the bound when the cores
  // scale and nothing queues.
  const auto callers = static_cast<unsigned>(state.range(0));
  const bool shared = state.range(1) != 0;
  constexpr unsigned kJobsPerCaller = 4;
  static const DecodeJob job = [] {
    ThreadPool pool;
    const std::uint32_t n = 10000;
    const std::uint32_t k = thresholds::k_of(n, 0.3);
    const auto m = static_cast<std::uint32_t>(1.4 * thresholds::m_mn_finite(n, k));
    DesignParams params;
    params.n = n;
    params.seed = 911;
    DecodeJob built;
    built.spec = simulate_spec(DesignKind::RandomRegular, params, m,
                               Signal::random(n, k, 912), pool);
    built.decoder = "mn";
    built.k = k;
    return built;
  }();
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (unsigned c = 0; c < (shared ? 1 : callers); ++c) {
    pools.push_back(std::make_unique<ThreadPool>(shared ? 4 : 1));
  }
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (unsigned c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        const BatchEngine engine(*pools[shared ? 0 : c]);
        for (unsigned j = 0; j < kJobsPerCaller; ++j) {
          const DecodeReport report = engine.run_one(job);
          benchmark::DoNotOptimize(report.support.data());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * callers *
                          kJobsPerCaller);
  state.SetLabel(shared ? "one 4-wide pool" : "private 1-thread pools");
}
BENCHMARK(BM_ConcurrentCallers)
    ->ArgsProduct({{1, 2, 4}, {1, 0}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForSum(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const std::size_t count = 1 << 20;
  std::vector<double> values(count, 1.5);
  for (auto _ : state) {
    const double total = parallel_reduce<double>(
        pool, 0, count, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) acc += values[i];
          return acc;
        },
        [](double a, double b) { return a + b; });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ParallelForSum)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelSort(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  const auto count = static_cast<std::size_t>(state.range(0));
  Xoshiro256pp gen(3);
  std::vector<std::uint64_t> base(count);
  for (auto& v : base) v = gen();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint64_t> values = base;
    state.ResumeTiming();
    parallel_sort(pool, values.begin(), values.end());
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ParallelSort)
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 2})
    ->Args({1 << 18, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PrefixSum(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(1)));
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> base(count, 3);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::uint64_t> values = base;
    state.ResumeTiming();
    const auto total = parallel_exclusive_scan(pool, values);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_PrefixSum)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

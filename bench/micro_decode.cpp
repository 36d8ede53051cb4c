// MICRO: the reconstruction pipeline -- entry-statistics accumulation
// (the paper's two matrix-vector products), top-k selection vs. the full
// parallel sort, SpMV, end-to-end MN decode, and the round loop of an
// adaptive MN decode.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "core/instance.hpp"
#include "core/mn.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "engine/registry.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace pooled;

struct Fixture {
  std::uint32_t n, k, m;
  Signal truth;
  std::shared_ptr<RandomRegularDesign> design;
  std::unique_ptr<StreamedInstance> streamed;

  explicit Fixture(std::uint32_t n_in, ThreadPool& pool)
      : n(n_in),
        k(thresholds::k_of(n_in, 0.3)),
        m(static_cast<std::uint32_t>(thresholds::m_mn_finite(
            n_in, std::max<std::uint32_t>(k, 2)))),
        truth(Signal::random(n_in, k, 1)),
        design(std::make_shared<RandomRegularDesign>(n_in, 2)) {
    streamed = make_streamed_instance(design, m, truth, pool);
  }
};

Fixture& fixture(std::uint32_t n) {
  static ThreadPool pool;
  static Fixture f1k(1000, pool), f10k(10000, pool);
  return n == 1000 ? f1k : f10k;
}

void BM_EntryStatsStreamed(benchmark::State& state) {
  ThreadPool pool;
  Fixture& f = fixture(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const EntryStats stats = f.streamed->entry_stats(pool);
    benchmark::DoNotOptimize(stats.psi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.m * (f.n / 2));
}
BENCHMARK(BM_EntryStatsStreamed)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_MnDecode(benchmark::State& state) {
  ThreadPool pool;
  Fixture& f = fixture(static_cast<std::uint32_t>(state.range(0)));
  const auto decoder = make_decoder("mn");
  const DecodeContext context(f.k, pool);
  for (auto _ : state) {
    const DecodeOutcome outcome = decoder->decode(*f.streamed, context);
    benchmark::DoNotOptimize(outcome.estimate.k());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * f.n);
}
BENCHMARK(BM_MnDecode)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_AdaptiveMn(benchmark::State& state) {
  // In-process adaptive:mn:L=16 at n=10^4 (m=806) on a pool of the given
  // width: the cost of its rounds without a server in front.
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  Fixture& f = fixture(10000);
  const auto decoder = make_decoder("adaptive:mn:L=16");
  const DecodeContext context(f.k, pool);
  std::uint32_t rounds = 0;
  for (auto _ : state) {
    const DecodeOutcome outcome = decoder->decode(*f.streamed, context);
    rounds = outcome.rounds;
    benchmark::DoNotOptimize(outcome.estimate.k());
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_AdaptiveMn)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SelectTopK(benchmark::State& state) {
  ThreadPool pool;
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool full_sort = state.range(1) != 0;
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::sin(static_cast<double>(i) * 12.9898) * 43758.5453;
  }
  const std::uint32_t k = static_cast<std::uint32_t>(n / 100) + 1;
  for (auto _ : state) {
    std::vector<double> copy = scores;
    auto top = select_top_k(copy, k, full_sort, pool);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetLabel(full_sort ? "parallel-sort" : "scan");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SelectTopK)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({1000000, 0})
    ->Args({1000000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SpMV(benchmark::State& state) {
  ThreadPool pool;
  Fixture& f = fixture(static_cast<std::uint32_t>(state.range(0)));
  const CsrMatrix a = CsrMatrix::from_instance(*f.streamed, true).transpose();
  std::vector<double> y(f.m, 1.0), out;
  for (auto _ : state) {
    a.multiply(pool, y, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nonzeros()));
}
BENCHMARK(BM_SpMV)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

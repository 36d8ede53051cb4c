// Tests for the baseline decoders: peeling, OMP, FISTA, IHT, random guess.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/fista.hpp"
#include "baselines/iht.hpp"
#include "baselines/omp_pursuit.hpp"
#include "baselines/peeling.hpp"
#include "baselines/random_guess.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "design/column_regular.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"

namespace pooled {
namespace {

std::unique_ptr<StreamedInstance> dense_instance(std::uint32_t n, std::uint32_t m,
                                                 const Signal& truth, std::uint64_t seed,
                                                 ThreadPool& pool) {
  auto design = std::make_shared<RandomRegularDesign>(n, seed);
  return make_streamed_instance(std::move(design), m, truth, pool);
}

/// Sparse column-regular instance: the regime peeling is designed for.
std::unique_ptr<StreamedInstance> sparse_instance(std::uint32_t n, std::uint32_t m,
                                                  std::uint32_t degree,
                                                  const Signal& truth, std::uint64_t seed,
                                                  ThreadPool& pool) {
  auto design = std::make_shared<ColumnRegularDesign>(n, m, degree, seed);
  return make_streamed_instance(std::move(design), m, truth, pool);
}

TEST(Peeling, ResolvesSparseInstancesCompletely) {
  ThreadPool pool(2);
  const std::uint32_t n = 500, k = 5;
  int successes = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Signal truth = Signal::random(n, k, 100 + trial);
    // Generous sparse budget: m = 60 pools of ~25 entries, degree 3.
    const auto instance = sparse_instance(n, 60, 3, truth, 200 + trial, pool);
    const PeelingOutcome outcome = PeelingDecoder().decode_detailed(*instance);
    if (outcome.unresolved == 0 &&
        exact_recovery(outcome.estimate, truth)) {
      ++successes;
    }
  }
  EXPECT_GE(successes, 6);
}

TEST(Peeling, ZeroResultQueriesClearTheirPools) {
  ThreadPool pool(1);
  // Truth with empty support: every query returns 0, peeling must resolve
  // every touched entry to zero.
  const std::uint32_t n = 100;
  const Signal truth(n);
  const auto instance = sparse_instance(n, 20, 2, truth, 3, pool);
  const PeelingOutcome outcome = PeelingDecoder().decode_detailed(*instance);
  EXPECT_EQ(outcome.resolved_ones, 0u);
  EXPECT_EQ(outcome.unresolved, 0u);
  EXPECT_TRUE(exact_recovery(outcome.estimate, truth));
}

TEST(Peeling, SaturatedQueriesForceOnes) {
  ThreadPool pool(1);
  // All-ones signal: every query result equals its pool mass, so the
  // saturation rule must fire for every entry.
  const std::uint32_t n = 40;
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
  const Signal truth(n, all);
  const auto instance = sparse_instance(n, 12, 2, truth, 5, pool);
  const PeelingOutcome outcome = PeelingDecoder().decode_detailed(*instance);
  EXPECT_EQ(outcome.unresolved, 0u);
  EXPECT_TRUE(exact_recovery(outcome.estimate, truth));
}

TEST(Peeling, StallsOnDensePools) {
  ThreadPool pool(1);
  // Γ = n/2 pools almost never produce a 0 or saturated result with a
  // nonempty support: the cascade cannot start. This failure is the
  // point of the MN-vs-peeling comparison.
  const std::uint32_t n = 300, k = 6;
  const Signal truth = Signal::random(n, k, 7);
  const auto instance = dense_instance(n, 100, truth, 9, pool);
  const PeelingOutcome outcome = PeelingDecoder().decode_detailed(*instance);
  EXPECT_GT(outcome.unresolved, 0u);
}

TEST(Peeling, DecodeInterfaceMatchesDetailed) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 4;
  const Signal truth = Signal::random(n, k, 11);
  const auto instance = sparse_instance(n, 40, 3, truth, 13, pool);
  EXPECT_EQ(PeelingDecoder().decode(*instance, k, pool),
            PeelingDecoder().decode_detailed(*instance).estimate);
}

TEST(Omp, RecoversWithGenerousQueries) {
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 5;
  const auto m = static_cast<std::uint32_t>(200);
  int successes = 0;
  const OmpDecoder decoder;
  for (int trial = 0; trial < 6; ++trial) {
    const Signal truth = Signal::random(n, k, 300 + trial);
    const auto instance = dense_instance(n, m, truth, 400 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(successes, 5);
}

TEST(Omp, ReturnsWeightKSupport) {
  ThreadPool pool(1);
  const std::uint32_t n = 100, k = 4;
  const Signal truth = Signal::random(n, k, 17);
  const auto instance = dense_instance(n, 60, truth, 19, pool);
  EXPECT_EQ(OmpDecoder().decode(*instance, k, pool).k(), k);
}

TEST(Omp, WeightZeroReturnsEmpty) {
  ThreadPool pool(1);
  const Signal truth(50);
  const auto instance = dense_instance(50, 10, truth, 21, pool);
  EXPECT_EQ(OmpDecoder().decode(*instance, 0, pool).k(), 0u);
}

TEST(Fista, RecoversWithGenerousQueries) {
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 5;
  int successes = 0;
  const FistaDecoder decoder;
  for (int trial = 0; trial < 6; ++trial) {
    const Signal truth = Signal::random(n, k, 500 + trial);
    const auto instance = dense_instance(n, 250, truth, 600 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(successes, 5);
}

TEST(Fista, EstimateHasWeightK) {
  ThreadPool pool(1);
  const std::uint32_t n = 120, k = 6;
  const Signal truth = Signal::random(n, k, 23);
  const auto instance = dense_instance(n, 80, truth, 29, pool);
  EXPECT_EQ(FistaDecoder().decode(*instance, k, pool).k(), k);
}

TEST(Iht, RecoversAtItsOwnWorkingRegime) {
  // Hard thresholding struggles on the coherent Γ = n/2 design (pools
  // overlap heavily); it needs noticeably more queries than MN/OMP/FISTA.
  // The comparison bench quantifies this -- here we pin that it does work
  // given that larger budget.
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 5;
  int successes = 0;
  const IhtDecoder decoder;
  for (int trial = 0; trial < 10; ++trial) {
    const Signal truth = Signal::random(n, k, 700 + trial);
    const auto instance = dense_instance(n, 500, truth, 800 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(successes, 5);
}

TEST(Iht, EstimateHasWeightK) {
  ThreadPool pool(1);
  const std::uint32_t n = 120, k = 6;
  const Signal truth = Signal::random(n, k, 31);
  const auto instance = dense_instance(n, 80, truth, 37, pool);
  EXPECT_EQ(IhtDecoder().decode(*instance, k, pool).k(), k);
}

TEST(RandomGuess, WeightKAndReproducible) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 8;
  const Signal truth = Signal::random(n, k, 41);
  const auto instance = dense_instance(n, 50, truth, 43, pool);
  const RandomGuessDecoder decoder;
  const Signal a = decoder.decode(*instance, k, pool);
  const Signal b = decoder.decode(*instance, k, pool);
  EXPECT_EQ(a.k(), k);
  EXPECT_EQ(a, b);  // deterministic per instance
}

TEST(RandomGuess, OverlapsAtChanceLevel) {
  ThreadPool pool(1);
  const std::uint32_t n = 400, k = 10;
  double overlap_sum = 0.0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const Signal truth = Signal::random(n, k, 900 + trial);
    const auto instance = dense_instance(n, 10 + trial, truth, 1000 + trial, pool);
    overlap_sum += overlap_fraction(
        RandomGuessDecoder().decode(*instance, k, pool), truth);
  }
  // Chance level is k/n = 0.025; anything below 0.15 certifies "no skill".
  EXPECT_LT(overlap_sum / trials, 0.15);
}

TEST(AllDecoders, NamesAreStableIdentifiers) {
  EXPECT_EQ(PeelingDecoder().name(), "peeling");
  EXPECT_EQ(OmpDecoder().name(), "omp");
  EXPECT_EQ(FistaDecoder().name(), "fista-l1");
  EXPECT_EQ(IhtDecoder().name(), "iht");
  EXPECT_EQ(RandomGuessDecoder().name(), "random-guess");
}

}  // namespace
}  // namespace pooled

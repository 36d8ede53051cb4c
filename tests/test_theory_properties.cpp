// Empirical validation of the paper's probabilistic statements.
//
// These are statistical tests with fixed seeds and generous tolerances:
// they pin the *formulas* implemented in the analysis (degree laws,
// conditional moments, concentration event R) against simulation, so a
// regression in the design or the accumulators shows up as a moment
// mismatch even when decoding still happens to work.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/exhaustive.hpp"
#include "core/instance.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "stats/summary.hpp"

namespace pooled {
namespace {

// Δ_i ~ Bin(m n/2, 1/n): mean m/2, variance ~ m/2 (paper, Model section).
TEST(TheoryDegrees, DeltaMomentsMatchBinomialLaw) {
  ThreadPool pool(2);
  const std::uint32_t n = 2000, m = 400;
  const Signal truth = Signal::random(n, 5, 1);
  auto design = std::make_shared<RandomRegularDesign>(n, 2);
  const auto instance = make_streamed_instance(design, m, truth, pool);
  const EntryStats stats = instance->entry_stats(pool, CountMode::EveryDraw);
  RunningStats delta;
  for (std::uint32_t i = 0; i < n; ++i) {
    delta.add(static_cast<double>(stats.delta[i]));
  }
  EXPECT_NEAR(delta.mean(), m / 2.0, 3.0 * std::sqrt(m / 2.0 / n));
  // Var(Bin(mn/2, 1/n)) = (m/2)(1 - 1/n) ~ m/2.
  EXPECT_NEAR(delta.variance(), m / 2.0, 0.15 * m / 2.0);
}

// Δ*_i ~ Bin(m, p) with p = 1 - (1 - 1/n)^Γ -> 1 - e^{-1/2} (Lemma 3 proof).
TEST(TheoryDegrees, DeltaStarMomentsMatchBinomialLaw) {
  ThreadPool pool(2);
  const std::uint32_t n = 2000, m = 400;
  const Signal truth = Signal::random(n, 5, 3);
  auto design = std::make_shared<RandomRegularDesign>(n, 4);
  const auto instance = make_streamed_instance(design, m, truth, pool);
  const EntryStats stats = instance->entry_stats(pool);
  const double p = 1.0 - std::pow(1.0 - 1.0 / n, static_cast<double>(n / 2));
  EXPECT_NEAR(p, thresholds::gamma(), 1e-3);
  RunningStats star;
  for (std::uint32_t i = 0; i < n; ++i) {
    star.add(static_cast<double>(stats.delta_star[i]));
  }
  EXPECT_NEAR(star.mean(), p * m, 3.0 * std::sqrt(p * (1.0 - p) * m / n));
  EXPECT_NEAR(star.variance(), p * (1.0 - p) * m, 0.15 * p * (1.0 - p) * m + 1.0);
}

// Event R (Eq. 3): all degrees concentrate within O(sqrt(m ln n)).
TEST(TheoryConcentration, EventRHoldsAtModerateScale) {
  ThreadPool pool(2);
  const std::uint32_t n = 5000, m = 600;
  const Signal truth = Signal::random(n, 12, 5);
  auto design = std::make_shared<RandomRegularDesign>(n, 6);
  const auto instance = make_streamed_instance(design, m, truth, pool);
  const EntryStats every = instance->entry_stats(pool, CountMode::EveryDraw);
  const EntryStats distinct = instance->entry_stats(pool);
  EXPECT_EQ(count_concentration_violations(every.delta, distinct.delta_star, m, 4.0),
            0u);
}

// Corollary 4: conditioned on entry j's edges, S_j = Ψ_j - 1{σ_j} Δ_j has
// law Bin(Δ*_j Γ - Δ_j, (k - 1{σ_j}) / (n - 1)). We verify the first
// moment for both a one-entry and a zero-entry across repeated designs.
TEST(TheoryMoments, CorollaryFourMeanForZeroAndOneEntries) {
  ThreadPool pool(2);
  const std::uint32_t n = 600, k = 9, m = 150;
  const Signal truth = Signal::random(n, k, 7);
  const std::uint32_t one_entry = truth.support()[0];
  std::uint32_t zero_entry = 0;
  while (truth.is_one(zero_entry)) ++zero_entry;

  RunningStats s_one_deviation, s_zero_deviation;
  const int trials = 150;
  for (int trial = 0; trial < trials; ++trial) {
    auto design = std::make_shared<RandomRegularDesign>(n, 100 + trial);
    const auto instance = make_streamed_instance(design, m, truth, pool);
    const EntryStats stats = instance->entry_stats(pool);
    const EntryStats every = instance->entry_stats(pool, CountMode::EveryDraw);
    for (const std::uint32_t j : {one_entry, zero_entry}) {
      const double gamma_pool = static_cast<double>(n / 2);
      const double half_edges =
          static_cast<double>(stats.delta_star[j]) * gamma_pool -
          static_cast<double>(every.delta[j]);
      const double prob =
          (static_cast<double>(k) - truth.value(j)) / (n - 1.0);
      const double s =
          static_cast<double>(stats.psi[j]) -
          truth.value(j) * static_cast<double>(every.delta[j]);
      const double deviation = s - half_edges * prob;
      (j == one_entry ? s_one_deviation : s_zero_deviation).add(deviation);
    }
  }
  // Mean deviation from the Corollary-4 mean must vanish relative to the
  // binomial scale sqrt(N p) ~ sqrt(γ m Γ k/n) ~ 21 here.
  const double scale = std::sqrt(thresholds::gamma() * m * (n / 2.0) * k / n);
  EXPECT_LT(std::abs(s_one_deviation.mean()), 4.0 * scale / std::sqrt(trials) + 1.0);
  EXPECT_LT(std::abs(s_zero_deviation.mean()), 4.0 * scale / std::sqrt(trials) + 1.0);
}

// Eq. (5): E[S_j | E_j, R] = (1 ± δ) γ k m / 2.
TEST(TheoryMoments, EquationFiveAggregateMean) {
  ThreadPool pool(2);
  const std::uint32_t n = 2000, k = 10, m = 300;
  const Signal truth = Signal::random(n, k, 9);
  auto design = std::make_shared<RandomRegularDesign>(n, 10);
  const auto instance = make_streamed_instance(design, m, truth, pool);
  const EntryStats stats = instance->entry_stats(pool);
  const EntryStats every = instance->entry_stats(pool, CountMode::EveryDraw);
  RunningStats s_values;
  for (std::uint32_t j = 0; j < n; ++j) {
    s_values.add(static_cast<double>(stats.psi[j]) -
                 truth.value(j) * static_cast<double>(every.delta[j]));
  }
  const double expected = thresholds::gamma() * k * m / 2.0;
  EXPECT_NEAR(s_values.mean(), expected, 0.1 * expected);
}

// The score gap driving Theorem 1. A one-entry gains its own degree
// Δ ~ m/2 but loses Δ* Γ/(n-1) ~ γ m/2 relative to a zero-entry (its
// neighborhood has only k-1 other ones to draw from), so the mean gap is
//   m/2 - γ m/2 = e^{-1/2} m / 2.
TEST(TheoryMoments, ScoreGapIsExpMinusHalfTimesHalfM) {
  ThreadPool pool(2);
  const std::uint32_t n = 2000, k = 10, m = 400;
  const Signal truth = Signal::random(n, k, 11);
  auto design = std::make_shared<RandomRegularDesign>(n, 12);
  const auto instance = make_streamed_instance(design, m, truth, pool);
  const EntryStats stats = instance->entry_stats(pool);
  RunningStats ones, zeros;
  for (std::uint32_t j = 0; j < n; ++j) {
    const double score = static_cast<double>(stats.psi[j]) -
                         static_cast<double>(stats.delta_star[j]) * k / 2.0;
    (truth.is_one(j) ? ones : zeros).add(score);
  }
  const double expected_gap = std::exp(-0.5) * m / 2.0;
  EXPECT_NEAR(ones.mean() - zeros.mean(), expected_gap, 0.15 * expected_gap);
}

// Djackov's converse says below m_para even exhaustive search is lost:
// well below the threshold, consistent alternatives abound; well above,
// the truth is unique (the two sides of Theorem 2 at toy scale).
TEST(TheoryInformation, AlternativeCountsStraddleTheThreshold) {
  ThreadPool pool(1);
  const std::uint32_t n = 20, k = 3;
  const double m_para = thresholds::m_para(n, k);
  double below_mean = 0.0;
  int above_unique = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const Signal truth = Signal::random(n, k, 20 + trial);
    auto design = std::make_shared<RandomRegularDesign>(n, 30 + trial);
    const auto below = make_streamed_instance(
        design, static_cast<std::uint32_t>(0.3 * m_para), truth, pool);
    below_mean += static_cast<double>(count_consistent(*below, k).consistent);
    const auto above = make_streamed_instance(
        design, static_cast<std::uint32_t>(3.0 * m_para), truth, pool);
    above_unique += (count_consistent(*above, k).consistent == 1);
  }
  below_mean /= trials;
  EXPECT_GT(below_mean, 2.0);        // many alternatives below threshold
  EXPECT_GE(above_unique, 9);        // essentially always unique above
}

}  // namespace
}  // namespace pooled

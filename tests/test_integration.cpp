// End-to-end integration and property sweeps across (n, theta, design).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "core/exhaustive.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/mn.hpp"
#include "core/thresholds.hpp"
#include "design/design.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/sweep.hpp"

namespace pooled {
namespace {

// ---------------------------------------------------------------------------
// Theorem 1 property: for every (n, theta) in a grid, MN with a safety
// margin above the finite-size threshold recovers nearly always, and a
// fraction of the threshold recovers nearly never.

using GridParam = std::tuple<std::uint32_t, double>;  // (n, theta)

class MnPhaseTransition : public ::testing::TestWithParam<GridParam> {};

TEST_P(MnPhaseTransition, SucceedsAboveAndFailsFarBelowThreshold) {
  ThreadPool pool(4);
  const auto [n, theta] = GetParam();
  const std::uint32_t k = thresholds::k_of(n, theta);
  const double m_star = thresholds::m_mn_finite(n, std::max<std::uint32_t>(k, 2));

  TrialConfig config;
  config.n = n;
  config.k = k;
  config.seed_base = 1000 + n + static_cast<std::uint64_t>(theta * 100);
  const MnDecoder decoder;

  config.m = static_cast<std::uint32_t>(1.6 * m_star);
  const AggregateResult above = run_trials(config, decoder, 12, pool);
  EXPECT_GE(above.success_rate(), 0.8)
      << "n=" << n << " theta=" << theta << " m=" << config.m;

  config.m = static_cast<std::uint32_t>(0.15 * m_star);
  const AggregateResult below = run_trials(config, decoder, 12, pool);
  EXPECT_LE(below.success_rate(), 0.4)
      << "n=" << n << " theta=" << theta << " m=" << config.m;
  // Even below threshold the overlap beats chance: most ones are found
  // (the Fig. 4 observation). With k < 4 the per-trial overlap is too
  // coarse (0, 1/2, 1 ...) for this check to be meaningful at 12 trials.
  if (k >= 4) {
    EXPECT_GT(below.overlap.mean(), static_cast<double>(k) / n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MnPhaseTransition,
    ::testing::Values(GridParam{300, 0.2}, GridParam{300, 0.3},
                      GridParam{1000, 0.1}, GridParam{1000, 0.2},
                      GridParam{1000, 0.3}, GridParam{1000, 0.4},
                      GridParam{3000, 0.3}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_theta" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

// ---------------------------------------------------------------------------
// Design robustness: MN works (with margin) on every streamable design.

class MnAcrossDesigns : public ::testing::TestWithParam<DesignKind> {};

TEST_P(MnAcrossDesigns, RecoversWithMargin) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 600;
  config.k = 7;
  config.design = GetParam();
  config.p = 0.5;
  config.seed_base = 77;
  config.m = static_cast<std::uint32_t>(
      2.0 * thresholds::m_mn_finite(config.n, config.k));
  const AggregateResult agg = run_trials(config, MnDecoder(), 10, pool);
  EXPECT_GE(agg.success_rate(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllStreamable, MnAcrossDesigns,
                         ::testing::Values(DesignKind::RandomRegular,
                                           DesignKind::Distinct,
                                           DesignKind::Bernoulli),
                         [](const ::testing::TestParamInfo<DesignKind>& info) {
                           switch (info.param) {
                             case DesignKind::RandomRegular:
                               return std::string("RandomRegular");
                             case DesignKind::Distinct:
                               return std::string("Distinct");
                             case DesignKind::Bernoulli:
                               return std::string("Bernoulli");
                           }
                           return std::string("Unknown");
                         });

// ---------------------------------------------------------------------------
// Theorem 2 property at toy scale: the number of consistent alternatives
// Z_k collapses to 1 as m grows; uniqueness implies exhaustive decoding
// recovers sigma.

TEST(InformationTheoretic, ConsistentSetShrinksToTruth) {
  ThreadPool pool(1);
  const std::uint32_t n = 18, k = 3;
  double mean_small_m = 0.0, mean_large_m = 0.0;
  int unique_large = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const Signal truth = Signal::random(n, k, 40 + trial);
    TrialConfig config;
    config.n = n;
    config.k = k;
    config.seed_base = 60 + trial;
    Signal out(1);
    config.m = 2;
    const auto small = build_trial_instance(config, trial, out, pool);
    mean_small_m += static_cast<double>(count_consistent(*small, k).consistent);
    config.m = 25;
    const auto large = build_trial_instance(config, trial, out, pool);
    const auto count = count_consistent(*large, k).consistent;
    mean_large_m += static_cast<double>(count);
    if (count == 1) {
      ++unique_large;
      const auto decoded = exhaustive_unique_decode(*large, k);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_TRUE(large->is_consistent(*decoded));
    }
  }
  mean_small_m /= trials;
  mean_large_m /= trials;
  EXPECT_GT(mean_small_m, mean_large_m);
  EXPECT_GE(unique_large, 8);  // uniqueness w.h.p. at generous m
}

// ---------------------------------------------------------------------------
// Full-pipeline determinism: identical outputs across pool widths and
// backends for the complete decode path.

TEST(Determinism, EndToEndIndependentOfThreads) {
  TrialConfig config;
  config.n = 800;
  config.k = 8;
  config.m = 300;
  config.seed_base = 314;
  const MnDecoder decoder;
  ThreadPool pool1(1), pool3(3), pool8(8);
  Signal t1(1), t3(1), t8(1);
  const auto i1 = build_trial_instance(config, 2, t1, pool1);
  const auto i3 = build_trial_instance(config, 2, t3, pool3);
  const auto i8 = build_trial_instance(config, 2, t8, pool8);
  EXPECT_EQ(t1, t3);
  EXPECT_EQ(t1, t8);
  EXPECT_EQ(i1->results(), i3->results());
  EXPECT_EQ(i1->results(), i8->results());
  const Signal d1 = decoder.decode(*i1, config.k, pool1);
  const Signal d3 = decoder.decode(*i3, config.k, pool3);
  const Signal d8 = decoder.decode(*i8, config.k, pool8);
  EXPECT_EQ(d1, d3);
  EXPECT_EQ(d1, d8);
}

// ---------------------------------------------------------------------------
// Cross-validation of the two score pathways: instance entry statistics
// feeding MnDecoder must equal the paper's matrix formulation computed
// through explicit SpMV on the design's biadjacency matrix.

TEST(CrossValidation, EntryStatsEqualMatrixVectorProducts) {
  ThreadPool pool(2);
  const std::uint32_t n = 400, m = 120, k = 7;
  const Signal truth = Signal::random(n, k, 8);
  TrialConfig config;
  config.n = n;
  config.k = k;
  config.m = m;
  config.seed_base = 15;
  Signal out(1);
  const auto instance = build_trial_instance(config, 0, out, pool);
  const EntryStats stats = instance->entry_stats(pool);

  // Paper formulation: Psi = M y and Delta* = M 1 with M the distinct
  // (0/1) entry-by-query pattern.
  const CsrMatrix pattern =
      CsrMatrix::from_instance(*instance, /*binary=*/true).transpose();
  std::vector<double> y(m), ones(m, 1.0), psi_product, star_product;
  for (std::uint32_t q = 0; q < m; ++q) {
    y[q] = static_cast<double>(instance->results()[q]);
  }
  pattern.multiply(pool, y, psi_product);
  pattern.multiply(pool, ones, star_product);
  std::vector<std::uint64_t> psi(n, 0);
  std::vector<std::uint32_t> delta_star(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    psi[i] = static_cast<std::uint64_t>(psi_product[i]);
    delta_star[i] = static_cast<std::uint32_t>(star_product[i]);
  }
  EXPECT_EQ(stats.psi, psi);
  EXPECT_EQ(stats.delta_star, delta_star);
}

// ---------------------------------------------------------------------------
// The success-rate curve is sigmoidal in m: a coarse 3-point sweep must be
// monotone for a comfortably separated grid (probabilistic, generous gaps).

TEST(PhaseTransitionShape, SweepIsMonotoneOverSeparatedGrid) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 500;
  config.k = 6;
  config.seed_base = 99;
  const double m_star = thresholds::m_mn_finite(config.n, config.k);
  const std::vector<std::uint32_t> ms = {
      static_cast<std::uint32_t>(0.2 * m_star),
      static_cast<std::uint32_t>(0.8 * m_star),
      static_cast<std::uint32_t>(1.8 * m_star)};
  const auto sweep = sweep_queries(config, MnDecoder(), ms, 16, pool);
  EXPECT_LE(sweep[0].success_rate, sweep[1].success_rate + 0.15);
  EXPECT_LE(sweep[1].success_rate, sweep[2].success_rate + 0.15);
  EXPECT_LE(sweep[0].overlap_mean, sweep[2].overlap_mean);
}

}  // namespace
}  // namespace pooled

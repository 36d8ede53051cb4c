// Tests for the Monte-Carlo harness, required-queries search, and sweeps.
#include <gtest/gtest.h>

#include "core/mn.hpp"
#include "core/thresholds.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/required_queries.hpp"
#include "sim/sweep.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

TEST(TrialSeeds, DeterministicAndDecorrelated) {
  const TrialSeeds a = trial_seeds(1, 0);
  const TrialSeeds b = trial_seeds(1, 0);
  EXPECT_EQ(a.design_seed, b.design_seed);
  EXPECT_EQ(a.signal_seed, b.signal_seed);
  EXPECT_NE(a.design_seed, a.signal_seed);
  const TrialSeeds c = trial_seeds(1, 1);
  EXPECT_NE(a.design_seed, c.design_seed);
  const TrialSeeds d = trial_seeds(2, 0);
  EXPECT_NE(a.design_seed, d.design_seed);
}

TEST(RunTrial, IsReproducible) {
  ThreadPool pool(2);
  TrialConfig config;
  config.n = 400;
  config.k = 6;
  config.m = 120;
  config.seed_base = 5;
  const MnDecoder decoder;
  const TrialResult a = run_trial(config, decoder, 3, pool);
  const TrialResult b = run_trial(config, decoder, 3, pool);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_DOUBLE_EQ(a.overlap, b.overlap);
}

TEST(RunTrials, AggregatesConsistently) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 300;
  config.k = 5;
  config.m = static_cast<std::uint32_t>(
      1.5 * thresholds::m_mn_finite(config.n, config.k));
  config.seed_base = 9;
  const MnDecoder decoder;
  const AggregateResult agg = run_trials(config, decoder, 20, pool);
  EXPECT_EQ(agg.trials, 20u);
  EXPECT_EQ(agg.overlap.count(), 20u);
  EXPECT_GE(agg.successes, 15u);  // comfortably above threshold
  EXPECT_GE(agg.success_rate(), 0.75);
  const Interval ci = agg.success_ci();
  EXPECT_LE(ci.low, agg.success_rate());
  EXPECT_GE(ci.high, agg.success_rate());
}

TEST(RunTrials, IndependentOfThreadCount) {
  TrialConfig config;
  config.n = 200;
  config.k = 4;
  config.m = 80;
  config.seed_base = 11;
  const MnDecoder decoder;
  ThreadPool pool1(1), pool4(4);
  const AggregateResult a = run_trials(config, decoder, 12, pool1);
  const AggregateResult b = run_trials(config, decoder, 12, pool4);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_NEAR(a.overlap.mean(), b.overlap.mean(), 1e-12);
}

TEST(RunTrial, RejectsInvalidConfig) {
  ThreadPool pool(1);
  TrialConfig config;
  config.n = 10;
  config.k = 11;
  EXPECT_THROW(run_trial(config, MnDecoder(), 0, pool), ContractError);
}

TEST(RequiredQueries, SingleRunFindsFiniteM) {
  RequiredQueriesConfig config;
  config.n = 300;
  config.k = 5;
  config.seed_base = 13;
  const std::uint32_t required = required_queries_one_run(config, 0);
  EXPECT_GT(required, 0u);
  EXPECT_GT(required, config.k);  // information-theoretically impossible below
  EXPECT_LT(required,
            10.0 * thresholds::m_mn_finite(config.n, config.k));
}

TEST(RequiredQueries, CapHittingRunIsRecordedAtTheCap) {
  // Far below any exact reconstruction: the run stops at the cap and
  // reports it, so the aggregate saturates instead of averaging in 0.
  RequiredQueriesConfig config;
  config.n = 300;
  config.k = 5;
  config.m_cap = 3;
  EXPECT_EQ(required_queries_one_run(config, 0), 3u);
}

TEST(RequiredQueries, IsReproducible) {
  RequiredQueriesConfig config;
  config.n = 250;
  config.k = 4;
  config.seed_base = 17;
  EXPECT_EQ(required_queries_one_run(config, 5),
            required_queries_one_run(config, 5));
}

TEST(RequiredQueries, AggregateOverTrials) {
  ThreadPool pool(4);
  RequiredQueriesConfig config;
  config.n = 250;
  config.k = 4;
  config.seed_base = 19;
  const RunningStats stats = required_queries(config, 8, pool);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_GT(stats.mean(), static_cast<double>(config.k));
  EXPECT_GT(stats.min(), 0.0);
}

TEST(RequiredQueries, GrowsWithN) {
  ThreadPool pool(4);
  RequiredQueriesConfig small;
  small.n = 100;
  small.k = 4;
  small.seed_base = 23;
  RequiredQueriesConfig large = small;
  large.n = 1000;
  const double m_small = required_queries(small, 6, pool).mean();
  const double m_large = required_queries(large, 6, pool).mean();
  EXPECT_GT(m_large, m_small);
}

TEST(Sweep, GridsAreSortedUniqueAndBounded) {
  const auto lin = linear_grid(10, 100, 10);
  EXPECT_EQ(lin.front(), 10u);
  EXPECT_EQ(lin.back(), 100u);
  EXPECT_TRUE(std::is_sorted(lin.begin(), lin.end()));
  const auto lg = log_grid(10, 10000, 7);
  EXPECT_EQ(lg.front(), 10u);
  EXPECT_EQ(lg.back(), 10000u);
  EXPECT_TRUE(std::is_sorted(lg.begin(), lg.end()));
  EXPECT_EQ(std::adjacent_find(lg.begin(), lg.end()), lg.end());
}

TEST(Sweep, GridValidation) {
  EXPECT_THROW(linear_grid(10, 10, 5), ContractError);
  EXPECT_THROW(linear_grid(10, 20, 1), ContractError);
  EXPECT_THROW(log_grid(0, 10, 5), ContractError);
}

TEST(Sweep, SuccessRateIncreasesAcrossTheThreshold) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 300;
  config.k = 5;
  config.seed_base = 29;
  const double m_star = thresholds::m_mn_finite(config.n, config.k);
  const std::vector<std::uint32_t> ms = {
      static_cast<std::uint32_t>(0.2 * m_star),
      static_cast<std::uint32_t>(2.0 * m_star)};
  const auto sweep = sweep_queries(config, MnDecoder(), ms, 12, pool);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].m, ms[0]);
  EXPECT_LT(sweep[0].success_rate, sweep[1].success_rate);
  EXPECT_GE(sweep[1].success_rate, 0.8);
  EXPECT_GE(sweep[1].overlap_mean, sweep[0].overlap_mean);
}

TEST(Sweep, FirstMReaching) {
  std::vector<SweepPoint> sweep(3);
  sweep[0].m = 10;
  sweep[0].success_rate = 0.1;
  sweep[1].m = 20;
  sweep[1].success_rate = 0.6;
  sweep[2].m = 30;
  sweep[2].success_rate = 0.9;
  EXPECT_EQ(first_m_reaching(sweep, 0.5), 20u);
  EXPECT_EQ(first_m_reaching(sweep, 0.95), 0u);
}

}  // namespace
}  // namespace pooled

// Tests for the query-noise models and noisy-trial plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/mn.hpp"
#include "core/noise.hpp"
#include "core/thresholds.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

TEST(NoiseModel_, ParsesAndFormatsCanonically) {
  EXPECT_EQ(NoiseModel{}.to_string(), "none");
  EXPECT_EQ(NoiseModel::parse("none"), NoiseModel{});
  EXPECT_EQ(NoiseModel::parse(""), NoiseModel{});

  const NoiseModel sym = NoiseModel::parse("sym:0.05:7");
  EXPECT_EQ(sym.kind, NoiseKind::Symmetric);
  EXPECT_DOUBLE_EQ(sym.level, 0.05);
  EXPECT_EQ(sym.seed, 7u);
  EXPECT_TRUE(sym.enabled());
  EXPECT_EQ(NoiseModel::parse(sym.to_string()), sym);  // round trip

  const NoiseModel gauss = NoiseModel::parse("gauss:1.5");
  EXPECT_EQ(gauss.kind, NoiseKind::Gaussian);
  EXPECT_DOUBLE_EQ(gauss.level, 1.5);
  EXPECT_EQ(gauss.seed, 0u);  // seed defaults

  EXPECT_FALSE(NoiseModel::symmetric(0.0).enabled());
  // Disabled models canonicalize to "none" regardless of kind/seed, so
  // equivalent decodes share one cache key and one wire form.
  EXPECT_EQ(NoiseModel::symmetric(0.0, 5).to_string(), "none");
  EXPECT_THROW((void)NoiseModel::parse("bogus:0.1"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("sym"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("sym:1.5"), ContractError);  // rate > 1
  EXPECT_THROW((void)NoiseModel::parse("sym:-0.1"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("sym:0.1:x"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("gauss:inf"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("gauss:nan"), ContractError);
  EXPECT_THROW((void)NoiseModel::parse("none:0.5"), ContractError);
  EXPECT_THROW((void)NoiseModel::make("sym", 2.0, 0), ContractError);
}

TEST(NoiseModel_, ApplyMatchesTheUnderlyingPerturbations) {
  std::vector<std::uint32_t> via_model = {5, 0, 3, 7, 2, 9};
  std::vector<std::uint32_t> via_function = via_model;
  apply_noise(via_model, NoiseModel::symmetric(0.5, 7));
  add_symmetric_noise(via_function, 0.5, 7);
  EXPECT_EQ(via_model, via_function);

  via_model = via_function = {5, 0, 3, 7, 2, 9};
  apply_noise(via_model, NoiseModel::gaussian(2.0, 11));
  add_gaussian_noise(via_function, 2.0, 11);
  EXPECT_EQ(via_model, via_function);
}

TEST(NoiseModel_, SymmetricNoiseOnOneBitChannelsIsABitFlipAtTheRate) {
  // Rate 1.0 must flip *every* outcome -- a +-1 count shift would only
  // flip half of them after re-collapsing.
  std::vector<std::uint32_t> y = {1, 0, 1, 0, 1, 1, 0, 0};
  apply_noise(y, NoiseModel::symmetric(1.0, 3), ChannelKind::Binary);
  const std::vector<std::uint32_t> flipped = {0, 1, 0, 1, 0, 0, 1, 1};
  EXPECT_EQ(y, flipped);

  // Gaussian noise perturbs the count and re-collapses: still 0/1.
  std::vector<std::uint32_t> g = {1, 0, 1, 0, 1, 1, 0, 0};
  apply_noise(g, NoiseModel::gaussian(2.0, 3), ChannelKind::Threshold);
  for (std::uint32_t v : g) EXPECT_LE(v, 1u);
}

TEST(NoiseModel_, WithNoiseRebuildsTheInstance) {
  ThreadPool pool(1);
  TrialConfig config;
  config.n = 200;
  config.k = 4;
  config.m = 60;
  config.seed_base = 23;
  Signal truth(1);
  std::shared_ptr<const StreamedInstance> instance =
      build_trial_instance(config, 0, truth, pool);

  // Disabled model: the very same object comes back, no copy.
  EXPECT_EQ(with_noise(instance, NoiseModel{}).get(), instance.get());

  const NoiseModel model = NoiseModel::symmetric(0.5, 31);
  const auto noisy = with_noise(instance, model);
  // Perturbed results on the same design; the original untouched.
  EXPECT_NE(noisy->results(), instance->results());
  EXPECT_EQ(noisy->n(), instance->n());
  EXPECT_EQ(noisy->m(), instance->m());
  EXPECT_EQ(&noisy->design(), &instance->design());
}

TEST(SymmetricNoise, ZeroRateIsIdentity) {
  std::vector<std::uint32_t> y = {5, 0, 3, 7};
  const auto original = y;
  add_symmetric_noise(y, 0.0, 1);
  EXPECT_EQ(y, original);
}

TEST(SymmetricNoise, PerturbsAtTheRequestedRate) {
  std::vector<std::uint32_t> y(20000, 10);
  add_symmetric_noise(y, 0.3, 2);
  int changed = 0;
  for (auto v : y) changed += (v != 10);
  // +-1 with fair sign: essentially every selected query changes.
  EXPECT_NEAR(changed / 20000.0, 0.3, 0.02);
  for (auto v : y) {
    EXPECT_GE(v, 9u);
    EXPECT_LE(v, 11u);
  }
}

TEST(SymmetricNoise, NeverUnderflowsZero) {
  std::vector<std::uint32_t> y(1000, 0);
  add_symmetric_noise(y, 1.0, 3);
  for (auto v : y) EXPECT_LE(v, 1u);
}

TEST(SymmetricNoise, DeterministicInSeed) {
  std::vector<std::uint32_t> a(100, 5), b(100, 5), c(100, 5);
  add_symmetric_noise(a, 0.5, 7);
  add_symmetric_noise(b, 0.5, 7);
  add_symmetric_noise(c, 0.5, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SymmetricNoise, RejectsBadRate) {
  std::vector<std::uint32_t> y = {1};
  EXPECT_THROW(add_symmetric_noise(y, -0.1, 1), ContractError);
  EXPECT_THROW(add_symmetric_noise(y, 1.1, 1), ContractError);
}

TEST(GaussianNoise, MomentsRoughlyMatch) {
  std::vector<std::uint32_t> y(20000, 100);
  add_gaussian_noise(y, 3.0, 4);
  double sum = 0.0, sum_sq = 0.0;
  for (auto v : y) {
    const double d = static_cast<double>(v) - 100.0;
    sum += d;
    sum_sq += d * d;
  }
  EXPECT_NEAR(sum / 20000.0, 0.0, 0.1);
  // Rounding adds ~1/12 variance.
  EXPECT_NEAR(sum_sq / 20000.0, 9.0, 0.5);
}

TEST(GaussianNoise, SigmaZeroIsIdentity) {
  std::vector<std::uint32_t> y = {2, 4};
  add_gaussian_noise(y, 0.0, 5);
  EXPECT_EQ(y, (std::vector<std::uint32_t>{2, 4}));
}

TEST(NoisyTrials, MnToleratesMildNoiseAboveThreshold) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 500;
  config.k = 6;
  config.m = static_cast<std::uint32_t>(
      2.0 * thresholds::m_mn_finite(config.n, config.k));
  config.seed_base = 11;
  config.noise = NoiseModel::symmetric(0.05);
  const AggregateResult agg = run_trials(config, MnDecoder(), 10, pool);
  EXPECT_GE(agg.success_rate(), 0.7);
}

TEST(NoisyTrials, HeavyNoiseDegradesOverlapNotCatastrophically) {
  ThreadPool pool(4);
  TrialConfig config;
  config.n = 500;
  config.k = 6;
  config.m = static_cast<std::uint32_t>(
      2.0 * thresholds::m_mn_finite(config.n, config.k));
  config.seed_base = 13;
  config.noise = NoiseModel::symmetric(0.5);
  const AggregateResult agg = run_trials(config, MnDecoder(), 10, pool);
  // +-1 noise shifts scores by O(sqrt(m)) << the m/2 gap: overlap stays high.
  EXPECT_GE(agg.overlap.mean(), 0.8);
}

TEST(NoisyTrials, NoiseRateZeroMatchesCleanPath) {
  ThreadPool pool(1);
  TrialConfig clean;
  clean.n = 300;
  clean.k = 5;
  clean.m = 120;
  clean.seed_base = 17;
  TrialConfig noisy = clean;
  noisy.noise = NoiseModel{};
  const MnDecoder decoder;
  const TrialResult a = run_trial(clean, decoder, 2, pool);
  const TrialResult b = run_trial(noisy, decoder, 2, pool);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_DOUBLE_EQ(a.overlap, b.overlap);
}

}  // namespace
}  // namespace pooled

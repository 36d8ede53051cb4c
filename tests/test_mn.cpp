// Tests for the MN decoder (Algorithm 1) and its incremental variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/incremental.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/mn.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

std::unique_ptr<StreamedInstance> make_instance(std::uint32_t n, std::uint32_t m,
                                                const Signal& truth, std::uint64_t seed,
                                                ThreadPool& pool) {
  auto design = std::make_shared<RandomRegularDesign>(n, seed);
  return make_streamed_instance(std::move(design), m, truth, pool);
}

TEST(SelectTopK, BasicSelection) {
  ThreadPool pool(1);
  std::vector<double> scores = {0.5, 3.0, 1.0, 2.0};
  const auto top = select_top_k(scores, 2, false, pool);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 3}));
}

TEST(SelectTopK, FullSortAgreesWithSelection) {
  ThreadPool pool(2);
  std::vector<double> scores(5000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = std::sin(static_cast<double>(i) * 12.9898) * 43758.5453;
  }
  auto a = scores;
  auto b = scores;
  EXPECT_EQ(select_top_k(a, 100, false, pool), select_top_k(b, 100, true, pool));
}

TEST(SelectTopK, TieBreaksTowardLowerIndex) {
  ThreadPool pool(1);
  std::vector<double> scores = {7.0, 7.0, 7.0, 7.0};
  const auto top = select_top_k(scores, 2, false, pool);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{0, 1}));
}

TEST(SelectTopK, RejectsOversizedK) {
  ThreadPool pool(1);
  std::vector<double> scores = {1.0};
  EXPECT_THROW(select_top_k(scores, 2, false, pool), ContractError);
}

TEST(MnDecoder, RecoversWellAboveThreshold) {
  ThreadPool pool(2);
  const std::uint32_t n = 1000;
  const std::uint32_t k = thresholds::k_of(n, 0.3);  // k = 8
  const auto m = static_cast<std::uint32_t>(1.5 * thresholds::m_mn_finite(n, k));
  int successes = 0;
  const MnDecoder decoder;
  for (int trial = 0; trial < 10; ++trial) {
    const Signal truth = Signal::random(n, k, 100 + trial);
    const auto instance = make_instance(n, m, truth, 200 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(successes, 9);  // w.h.p. regime
}

TEST(MnDecoder, FailsWellBelowThreshold) {
  ThreadPool pool(2);
  const std::uint32_t n = 1000, k = 8;
  const std::uint32_t m = 10;  // hopeless
  int successes = 0;
  const MnDecoder decoder;
  for (int trial = 0; trial < 10; ++trial) {
    const Signal truth = Signal::random(n, k, 300 + trial);
    const auto instance = make_instance(n, m, truth, 400 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_LE(successes, 1);
}

TEST(MnDecoder, EstimateAlwaysHasWeightK) {
  ThreadPool pool(2);
  const std::uint32_t n = 500, k = 9;
  const Signal truth = Signal::random(n, k, 1);
  for (std::uint32_t m : {1u, 5u, 50u, 200u}) {
    const auto instance = make_instance(n, m, truth, 2, pool);
    EXPECT_EQ(MnDecoder().decode(*instance, k, pool).k(), k);
  }
}

TEST(MnDecoder, ScoredVariantAgreesWithPlainDecode) {
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 8;
  const Signal truth = Signal::random(n, k, 3);
  const auto instance = make_instance(n, 150, truth, 4, pool);
  const MnDecoder decoder;
  const MnResult scored = decoder.decode_scored(*instance, k, pool);
  EXPECT_EQ(scored.estimate, decoder.decode(*instance, k, pool));
  ASSERT_EQ(scored.scores.size(), n);
  // Support entries must be the top scorers (with index tie-break).
  for (auto i : scored.estimate.support()) {
    EXPECT_TRUE(truth.n() == n);
    EXPECT_GE(scored.scores[i],
              *std::min_element(scored.scores.begin(), scored.scores.end()));
  }
}

TEST(MnDecoder, FullSortOptionMatchesSelection) {
  ThreadPool pool(2);
  const std::uint32_t n = 600, k = 10;
  const Signal truth = Signal::random(n, k, 5);
  const auto instance = make_instance(n, 250, truth, 6, pool);
  MnOptions sorted_opts;
  sorted_opts.full_sort = true;
  EXPECT_EQ(MnDecoder(sorted_opts).decode(*instance, k, pool),
            MnDecoder().decode(*instance, k, pool));
}

TEST(MnDecoder, OneEntriesScoreHigherOnAverage) {
  ThreadPool pool(2);
  const std::uint32_t n = 1000, k = 8;
  const Signal truth = Signal::random(n, k, 7);
  const auto instance = make_instance(
      n, static_cast<std::uint32_t>(thresholds::m_mn_finite(n, k)), truth, 8, pool);
  const MnResult result = MnDecoder().decode_scored(*instance, k, pool);
  double one_mean = 0.0, zero_mean = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    (truth.is_one(i) ? one_mean : zero_mean) += result.scores[i];
  }
  one_mean /= k;
  zero_mean /= (n - k);
  // E[score | one] ≈ Δ ≈ m/2, E[score | zero] ≈ 0.
  EXPECT_GT(one_mean, zero_mean + 10.0);
  EXPECT_NEAR(zero_mean, 0.0, 0.1 * one_mean + 5.0);
}

class MnScoreVariants : public ::testing::TestWithParam<MnScore> {};

TEST_P(MnScoreVariants, DecodesAboveItsOwnThreshold) {
  // Every variant should work with a generous query budget; this pins the
  // ablation implementations as functional, not just compiling. RawPsi
  // lacks the Δ*-centering, so its effective threshold is higher -- it
  // gets a bigger budget (the ablation bench quantifies the gap).
  ThreadPool pool(2);
  const std::uint32_t n = 500, k = 6;
  const double multiplier = GetParam() == MnScore::RawPsi ? 10.0 : 3.0;
  const auto m = static_cast<std::uint32_t>(
      multiplier * thresholds::m_mn_finite(n, k));
  MnOptions options;
  options.score = GetParam();
  const MnDecoder decoder(options);
  int successes = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Signal truth = Signal::random(n, k, 500 + trial);
    const auto instance = make_instance(n, m, truth, 600 + trial, pool);
    successes += exact_recovery(decoder.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(successes, 5) << decoder.name();
}

TEST(MnScoreAblation, CenteringBeatsRawScoreAtModerateBudget) {
  ThreadPool pool(2);
  const std::uint32_t n = 500, k = 6;
  const auto m = static_cast<std::uint32_t>(
      2.0 * thresholds::m_mn_finite(n, k));
  MnOptions raw_options;
  raw_options.score = MnScore::RawPsi;
  const MnDecoder centralized, raw(raw_options);
  int wins_centralized = 0, wins_raw = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Signal truth = Signal::random(n, k, 900 + trial);
    const auto instance = make_instance(n, m, truth, 950 + trial, pool);
    wins_centralized += exact_recovery(centralized.decode(*instance, k, pool), truth);
    wins_raw += exact_recovery(raw.decode(*instance, k, pool), truth);
  }
  EXPECT_GE(wins_centralized, wins_raw);
  EXPECT_GE(wins_centralized, 8);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, MnScoreVariants,
                         ::testing::Values(MnScore::CentralizedPsi,
                                           MnScore::RawPsi,
                                           MnScore::NormalizedPsi,
                                           MnScore::MultiEdgePsi));

TEST(MnDecoder, NamesAreDistinct) {
  std::set<std::string> names;
  for (auto score : {MnScore::CentralizedPsi, MnScore::RawPsi,
                     MnScore::NormalizedPsi, MnScore::MultiEdgePsi}) {
    MnOptions options;
    options.score = score;
    names.insert(MnDecoder(options).name());
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST(IncrementalMn, AgreesWithBatchDecoderAtEveryPrefix) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 5;
  const Signal truth = Signal::random(n, k, 11);
  auto design = std::make_shared<RandomRegularDesign>(n, 12);
  IncrementalMn incremental(design);
  const MnDecoder batch;
  for (std::uint32_t m = 1; m <= 60; ++m) {
    incremental.add_simulated_query(truth);
    if (m % 10 != 0) continue;  // spot-check prefixes
    const auto instance = make_streamed_instance(design, m, truth, pool);
    EXPECT_EQ(incremental.decode(k, pool), batch.decode(*instance, k, pool))
        << "prefix m=" << m;
  }
}

TEST(IncrementalMn, MatchesTruthFlagAgreesWithDecode) {
  ThreadPool pool(1);
  const std::uint32_t n = 300, k = 6;
  const Signal truth = Signal::random(n, k, 13);
  auto design = std::make_shared<RandomRegularDesign>(n, 14);
  IncrementalMn incremental(design);
  for (int q = 0; q < 250; ++q) {
    incremental.add_simulated_query(truth);
    EXPECT_EQ(incremental.matches_truth(truth, pool),
              incremental.decode(k, pool) == truth)
        << "m=" << incremental.m();
  }
}

TEST(IncrementalMn, EventuallyRecovers) {
  ThreadPool pool(1);
  const std::uint32_t n = 400, k = 6;
  const Signal truth = Signal::random(n, k, 15);
  auto design = std::make_shared<RandomRegularDesign>(n, 16);
  IncrementalMn incremental(design);
  const auto cap = static_cast<std::uint32_t>(
      10.0 * thresholds::m_mn_finite(n, k));
  bool recovered = false;
  while (incremental.m() < cap) {
    incremental.add_simulated_query(truth);
    if (incremental.matches_truth(truth, pool)) {
      recovered = true;
      break;
    }
  }
  EXPECT_TRUE(recovered);
}

TEST(IncrementalMn, FingerprintMatchesTheOneShotPass) {
  // The folds draw the one-shot pass's weights over the same results, so
  // the accumulator's fingerprint is the one an instance of its queries
  // records, in either count mode.
  ThreadPool pool(1);
  const std::uint32_t n = 150, k = 4;
  const Signal truth = Signal::random(n, k, 17);
  auto design = std::make_shared<RandomRegularDesign>(n, 18);
  for (const MnScore score : {MnScore::CentralizedPsi, MnScore::MultiEdgePsi}) {
    MnOptions options;
    options.score = score;
    IncrementalMn incremental(design, options);
    for (int q = 0; q < 25; ++q) incremental.add_simulated_query(truth);
    EXPECT_TRUE(incremental.is_consistent(truth));
    const auto instance = make_streamed_instance(design, 25, truth, pool);
    (void)instance->entry_stats(pool);
    ASSERT_NE(instance->fingerprint(), nullptr);
    const QueryFingerprint got = incremental.fingerprint();
    EXPECT_EQ(got.entries, instance->fingerprint()->entries);
    EXPECT_EQ(got.target, instance->fingerprint()->target);
    EXPECT_EQ(got.queries, 25u);
    EXPECT_EQ(instance->fingerprint()->queries, 25u);
  }
}

TEST(IncrementalMn, OverlapFractionIsMonotoneAtLargeM) {
  // Not strictly monotone per query, but must reach 1.0 once recovered.
  ThreadPool pool(1);
  const std::uint32_t n = 300, k = 5;
  const Signal truth = Signal::random(n, k, 19);
  auto design = std::make_shared<RandomRegularDesign>(n, 20);
  IncrementalMn incremental(design);
  const auto cap = static_cast<std::uint32_t>(
      10.0 * thresholds::m_mn_finite(n, k));
  while (!incremental.matches_truth(truth, pool) && incremental.m() < cap) {
    incremental.add_simulated_query(truth);
  }
  ASSERT_TRUE(incremental.matches_truth(truth, pool));
  EXPECT_DOUBLE_EQ(incremental.overlap_fraction(truth, pool), 1.0);
}

TEST(Metrics, ExactRecoveryAndOverlap) {
  const Signal truth(10, {1, 2, 3});
  const Signal perfect(10, {1, 2, 3});
  const Signal partial(10, {1, 2, 9});
  const Signal disjoint(10, {4, 5, 6});
  EXPECT_TRUE(exact_recovery(perfect, truth));
  EXPECT_FALSE(exact_recovery(partial, truth));
  EXPECT_DOUBLE_EQ(overlap_fraction(perfect, truth), 1.0);
  EXPECT_NEAR(overlap_fraction(partial, truth), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(overlap_fraction(disjoint, truth), 0.0);
}

TEST(Metrics, ErrorCounts) {
  const Signal truth(10, {1, 2, 3});
  const Signal estimate(10, {1, 2, 9});
  const ErrorCounts errors = error_counts(estimate, truth);
  EXPECT_EQ(errors.false_positives, 1u);
  EXPECT_EQ(errors.false_negatives, 1u);
}

}  // namespace
}  // namespace pooled

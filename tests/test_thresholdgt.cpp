// Tests for the threshold group-testing extension (§VI open problem).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "engine/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace pooled {
namespace {

std::unique_ptr<StreamedInstance> tgt_instance(
    std::uint32_t n, std::uint32_t k, std::uint32_t m, std::uint32_t T,
    std::uint64_t seed, const Signal& truth, ThreadPool& pool,
    ChannelKind channel = ChannelKind::Threshold) {
  auto design = std::make_shared<RandomRegularDesign>(
      n, seed, threshold_gt_gamma(n, k, T));
  return make_streamed_instance(std::move(design), m, truth, pool, channel, T);
}

std::vector<std::uint32_t> support_of(const Signal& estimate) {
  return {estimate.support().begin(), estimate.support().end()};
}

TEST(ThresholdGamma, CentersExpectedCountAtThreshold) {
  // Γ = T n / k puts E[ones per pool] = Γ k / n = T.
  EXPECT_EQ(threshold_gt_gamma(1000, 10, 2), 200u);
  EXPECT_EQ(threshold_gt_gamma(1000, 10, 5), 500u);
  EXPECT_EQ(threshold_gt_gamma(100, 10, 20), 100u);  // clamped at n
  EXPECT_THROW(threshold_gt_gamma(10, 0, 1), ContractError);
  EXPECT_THROW(threshold_gt_gamma(10, 1, 0), ContractError);
}

TEST(ThresholdInstance, OutcomesMatchManualCount) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 8, m = 30, T = 2;
  const Signal truth = Signal::random(n, k, 3);
  const auto instance = tgt_instance(n, k, m, T, 4, truth, pool);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    instance->query_members(q, members);
    std::uint32_t count = 0;
    for (auto e : members) count += truth.value(e);
    EXPECT_EQ(instance->results()[q] != 0, count >= T) << "query " << q;
  }
}

TEST(ThresholdInstance, ThresholdOneEqualsBinaryGt) {
  ThreadPool pool(1);
  const std::uint32_t n = 300, k = 6, m = 40;
  const Signal truth = Signal::random(n, k, 5);
  const auto instance = tgt_instance(n, k, m, 1, 6, truth, pool);
  // T=1: outcome is exactly "pool intersects the support".
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    instance->query_members(q, members);
    bool any = false;
    for (auto e : members) any |= truth.is_one(e);
    EXPECT_EQ(instance->results()[q] != 0, any);
  }
}

TEST(ThresholdInstance, OutcomeRateNearHalfAtMatchedGamma) {
  // With Γ = T n / k the count is Bin(Γ, ~k/n) with mean T; the outcome
  // {count >= T} should fire roughly half the time (median at mean).
  ThreadPool pool(2);
  const std::uint32_t n = 4000, k = 16, m = 800, T = 3;
  const Signal truth = Signal::random(n, k, 7);
  const auto instance = tgt_instance(n, k, m, T, 8, truth, pool);
  double fired = 0;
  for (auto o : instance->results()) fired += o;
  EXPECT_NEAR(fired / m, 0.55, 0.15);
}

class ThresholdRecovery : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThresholdRecovery, MnStyleDecoderRecoversWithGenerousBudget) {
  ThreadPool pool(2);
  const std::uint32_t T = GetParam();
  const std::uint32_t n = 800, k = 8;
  // Generous budget relative to the binary-GT scale; separation per query
  // shrinks roughly like 1/sqrt(T), so the factor covers T up to 4.
  const auto m = static_cast<std::uint32_t>(
      10.0 * thresholds::m_binary_gt(n, k));
  int successes = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Signal truth = Signal::random(n, k, 100 * T + trial);
    const auto instance = tgt_instance(n, k, m, T, 200 * T + trial, truth, pool);
    const ThresholdDecodeResult result = decode_threshold_mn(*instance, k, pool);
    successes += exact_recovery(result.estimate, truth);
  }
  EXPECT_GE(successes, 6) << "threshold T=" << T;
}

INSTANTIATE_TEST_SUITE_P(ThresholdsOneToFour, ThresholdRecovery,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ThresholdDecoder, EstimateHasWeightK) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 5;
  const Signal truth = Signal::random(n, k, 9);
  const auto instance = tgt_instance(n, k, 50, 2, 10, truth, pool);
  EXPECT_EQ(decode_threshold_mn(*instance, k, pool).estimate.k(), k);
}

TEST(ThresholdDecoder, OneEntriesScoreHigherOnAverage) {
  ThreadPool pool(2);
  const std::uint32_t n = 800, k = 8, T = 2;
  const auto m = static_cast<std::uint32_t>(
      4.0 * thresholds::m_binary_gt(n, k));
  const Signal truth = Signal::random(n, k, 11);
  const auto instance = tgt_instance(n, k, m, T, 12, truth, pool);
  const ThresholdDecodeResult result = decode_threshold_mn(*instance, k, pool);
  double one_mean = 0.0, zero_mean = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    (truth.is_one(i) ? one_mean : zero_mean) += result.scores[i];
  }
  one_mean /= k;
  zero_mean /= (n - k);
  EXPECT_GT(one_mean, zero_mean);
}

TEST(ThresholdDecoder, FailsWithTinyBudget) {
  ThreadPool pool(1);
  const std::uint32_t n = 800, k = 8;
  int successes = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Signal truth = Signal::random(n, k, 20 + trial);
    const auto instance = tgt_instance(n, k, 5, 2, 30 + trial, truth, pool);
    successes += exact_recovery(decode_threshold_mn(*instance, k, pool).estimate,
                                truth);
  }
  EXPECT_EQ(successes, 0);
}

TEST(ThresholdInstance, ValidatesShape) {
  auto design = std::make_shared<RandomRegularDesign>(10, 1, 5);
  EXPECT_THROW(StreamedInstance(design, 2, {1, 0}, ChannelKind::Threshold, 0),
               ContractError);
  EXPECT_THROW(StreamedInstance(design, 3, {1, 0}, ChannelKind::Threshold, 1),
               ContractError);
  EXPECT_THROW(StreamedInstance(nullptr, 0, {}, ChannelKind::Threshold, 1),
               ContractError);
  EXPECT_THROW(StreamedInstance(design, 2, {1, 3}, ChannelKind::Threshold, 2),
               ContractError);
}

TEST(ThresholdDecoder, ServedDecoderCollapsesQuantitativeCounts) {
  // gt:threshold:<T> on a quantitative instance scores y >= T on the
  // same design: the answer of the threshold-channel instance.
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 6, m = 120, T = 2;
  const Signal truth = Signal::random(n, k, 42);
  const auto counts =
      tgt_instance(n, k, m, T, 43, truth, pool, ChannelKind::Quantitative);
  const auto one_bit = tgt_instance(n, k, m, T, 43, truth, pool);
  const Signal served = make_decoder("gt:threshold:2")->decode(*counts, k, pool);
  EXPECT_EQ(support_of(served),
            support_of(decode_threshold_mn(*one_bit, k, pool).estimate));
  EXPECT_THROW((void)decode_threshold_mn(*counts, k, pool), ContractError);
}

}  // namespace
}  // namespace pooled

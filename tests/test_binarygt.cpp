// Tests for the binary (OR-channel) group-testing extension.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "binarygt/binary_decoders.hpp"
#include "core/metrics.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

std::unique_ptr<StreamedInstance> gt_instance(
    std::uint32_t n, std::uint32_t k, std::uint32_t m, std::uint64_t seed,
    const Signal& truth, ThreadPool& pool,
    ChannelKind channel = ChannelKind::Binary) {
  auto design = std::make_shared<RandomRegularDesign>(n, seed,
                                                      optimal_gt_gamma(n, k));
  return make_streamed_instance(std::move(design), m, truth, pool, channel);
}

std::vector<std::uint32_t> support_of(const Signal& estimate) {
  return {estimate.support().begin(), estimate.support().end()};
}

TEST(OptimalGamma, HalvingProbabilityShape) {
  // Γ = n ln2 / k: a pool misses all k positives with probability
  // ~ (1 - Γ/n)^k ~ exp(-Γ k / n) = 1/2.
  EXPECT_EQ(optimal_gt_gamma(1000, 1), 693u);
  EXPECT_EQ(optimal_gt_gamma(1000, 10), 69u);
  EXPECT_EQ(optimal_gt_gamma(100, 100), 1u);
  EXPECT_THROW(optimal_gt_gamma(0, 1), ContractError);
}

TEST(BinaryInstance, OutcomesMatchManualOrEvaluation) {
  ThreadPool pool(1);
  const std::uint32_t n = 200, k = 6, m = 40;
  const Signal truth = Signal::random(n, k, 3);
  const auto instance = gt_instance(n, k, m, 4, truth, pool);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    instance->query_members(q, members);
    bool expected = false;
    for (auto e : members) expected |= truth.is_one(e);
    EXPECT_EQ(instance->results()[q] != 0, expected);
  }
}

TEST(BinaryInstance, NegativeRateNearHalfAtOptimalGamma) {
  ThreadPool pool(2);
  const std::uint32_t n = 2000, k = 10, m = 600;
  const Signal truth = Signal::random(n, k, 5);
  const auto instance = gt_instance(n, k, m, 6, truth, pool);
  double negatives = 0;
  for (auto o : instance->results()) negatives += (o == 0);
  EXPECT_NEAR(negatives / m, 0.5, 0.1);
}

TEST(Comp, NeverProducesFalseNegatives) {
  ThreadPool pool(2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t n = 400, k = 8, m = 100;
    const Signal truth = Signal::random(n, k, 10 + trial);
    const auto instance = gt_instance(n, k, m, 20 + trial, truth, pool);
    const BinaryDecodeResult result = decode_comp(*instance);
    // Every true positive must be in COMP's declared set.
    EXPECT_EQ(result.estimate.overlap(truth), k);
  }
}

TEST(Dd, NeverProducesFalsePositives) {
  ThreadPool pool(2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t n = 400, k = 8, m = 100;
    const Signal truth = Signal::random(n, k, 30 + trial);
    const auto instance = gt_instance(n, k, m, 40 + trial, truth, pool);
    const BinaryDecodeResult result = decode_dd(*instance);
    EXPECT_EQ(error_counts(result.estimate, truth).false_positives, 0u);
  }
}

TEST(Dd, SupportIsSubsetOfComp) {
  ThreadPool pool(1);
  const std::uint32_t n = 300, k = 6, m = 60;
  const Signal truth = Signal::random(n, k, 50);
  const auto instance = gt_instance(n, k, m, 51, truth, pool);
  const Signal comp = decode_comp(*instance).estimate;
  const Signal dd = decode_dd(*instance).estimate;
  EXPECT_EQ(dd.overlap(comp), dd.k());
  EXPECT_LE(dd.k(), comp.k());
}

TEST(Dd, RecoversWithGenerousBudget) {
  ThreadPool pool(2);
  const std::uint32_t n = 1000, k = 8;
  const auto m = static_cast<std::uint32_t>(
      3.0 * thresholds::m_binary_gt(n, k));
  int successes = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Signal truth = Signal::random(n, k, 60 + trial);
    const auto instance = gt_instance(n, k, m, 70 + trial, truth, pool);
    successes += exact_recovery(decode_dd(*instance).estimate, truth);
  }
  EXPECT_GE(successes, 7);
}

TEST(CompAndDd, FailBelowBudget) {
  ThreadPool pool(2);
  const std::uint32_t n = 1000, k = 8, m = 10;
  int comp_success = 0, dd_success = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Signal truth = Signal::random(n, k, 80 + trial);
    const auto instance = gt_instance(n, k, m, 90 + trial, truth, pool);
    comp_success += exact_recovery(decode_comp(*instance).estimate, truth);
    dd_success += exact_recovery(decode_dd(*instance).estimate, truth);
  }
  EXPECT_EQ(comp_success, 0);
  EXPECT_EQ(dd_success, 0);
}

TEST(BinaryInstance, AllZeroSignalGivesAllNegativeTests) {
  ThreadPool pool(1);
  const std::uint32_t n = 100;
  const Signal truth(n);
  auto design = std::make_shared<RandomRegularDesign>(n, 1, 20);
  const auto instance =
      make_streamed_instance(design, 30, truth, pool, ChannelKind::Binary);
  for (auto o : instance->results()) EXPECT_EQ(o, 0);
  const BinaryDecodeResult comp = decode_comp(*instance);
  // Everything touched by a test is cleared; untouched entries remain
  // candidates (a design property, not a decoder bug).
  EXPECT_EQ(comp.estimate.k(), n - comp.definite_zeros);
}

TEST(BinaryInstance, ValidatesShape) {
  auto design = std::make_shared<RandomRegularDesign>(10, 1, 5);
  EXPECT_THROW(StreamedInstance(design, 3, {1, 0}, ChannelKind::Binary),
               ContractError);
  EXPECT_THROW(StreamedInstance(nullptr, 0, {}, ChannelKind::Binary),
               ContractError);
  EXPECT_THROW(StreamedInstance(design, 2, {2, 0}, ChannelKind::Binary),
               ContractError);
}

TEST(CompAndDd, QuantitativeCountsDecodeLikeTheirOrOutcomes) {
  // A test is positive iff y != 0, so the counts of a quantitative
  // instance decode exactly like the OR outcomes of the same queries.
  ThreadPool pool(2);
  const std::uint32_t n = 400, k = 8, m = 90;
  const Signal truth = Signal::random(n, k, 14);
  const auto binary = gt_instance(n, k, m, 15, truth, pool);
  const auto counts =
      gt_instance(n, k, m, 15, truth, pool, ChannelKind::Quantitative);
  EXPECT_EQ(support_of(decode_comp(*counts, &pool).estimate),
            support_of(decode_comp(*binary, &pool).estimate));
  EXPECT_EQ(support_of(decode_dd(*counts, &pool).estimate),
            support_of(decode_dd(*binary, &pool).estimate));
}

TEST(BinaryInstance, PacksPoolsOncePerInstance) {
  // Every decode of one instance reads the same pack (or, past
  // POOLED_PACK_BUDGET_MB, none), whichever pool asks first.
  ThreadPool pool(2);
  const std::uint32_t n = 300, k = 6, m = 60;
  const Signal truth = Signal::random(n, k, 18);
  const auto instance = gt_instance(n, k, m, 19, truth, pool);
  const PackedPools* first = instance->packed_pools(&pool);
  EXPECT_EQ(instance->packed_pools(nullptr), first);
  const Signal dd = decode_dd(*instance, &pool).estimate;
  EXPECT_EQ(instance->packed_pools(&pool), first);
  EXPECT_EQ(support_of(decode_dd(*instance, nullptr).estimate), support_of(dd));
}

}  // namespace
}  // namespace pooled

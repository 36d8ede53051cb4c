// Tests for the exhaustive Z_k counters and IT-optimal decoding
// (the machinery behind the Theorem 2 experiments).
#include <gtest/gtest.h>

#include <memory>

#include "core/exhaustive.hpp"
#include "core/instance.hpp"
#include "core/signal.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/sampling.hpp"

namespace pooled {
namespace {

std::unique_ptr<StreamedInstance> tiny_instance(std::uint32_t n, std::uint32_t m,
                                                const Signal& truth, std::uint64_t seed,
                                                ThreadPool& pool) {
  auto design = std::make_shared<RandomRegularDesign>(n, seed);
  return make_streamed_instance(std::move(design), m, truth, pool);
}

TEST(CountConsistent, TruthIsAlwaysCounted) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(14, 3, 5);
  const auto instance = tiny_instance(14, 8, truth, 7, pool);
  const ConsistencyCount count = count_consistent(*instance, 3, &truth);
  EXPECT_GE(count.consistent, 1u);
  ASSERT_EQ(count.by_overlap.size(), 4u);
  EXPECT_EQ(count.by_overlap[3], 1u);  // full overlap = the truth itself
  EXPECT_FALSE(count.truncated);
}

TEST(CountConsistent, OverlapStrataSumToTotal) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(12, 3, 11);
  const auto instance = tiny_instance(12, 2, truth, 13, pool);  // few queries
  const ConsistencyCount count = count_consistent(*instance, 3, &truth);
  std::uint64_t total = 0;
  for (auto c : count.by_overlap) total += c;
  EXPECT_EQ(total, count.consistent);
  // With only two queries, alternatives should exist at this size.
  EXPECT_GT(count.consistent, 1u);
}

TEST(CountConsistent, ZeroQueriesCountsAllSupports) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(10, 2, 17);
  const auto instance = tiny_instance(10, 0, truth, 19, pool);
  const ConsistencyCount count = count_consistent(*instance, 2);
  EXPECT_EQ(count.consistent, 45u);  // C(10,2)
}

TEST(CountConsistent, ManyQueriesLeaveOnlyTheTruth) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(16, 3, 23);
  const auto instance = tiny_instance(16, 30, truth, 29, pool);
  const ConsistencyCount count = count_consistent(*instance, 3, &truth);
  EXPECT_EQ(count.consistent, 1u);
  EXPECT_EQ(count.by_overlap[3], 1u);
}

TEST(CountConsistent, WeightZeroHandled) {
  ThreadPool pool(1);
  const Signal truth(6);  // all-zero signal
  const auto instance = tiny_instance(6, 4, truth, 31, pool);
  const ConsistencyCount count = count_consistent(*instance, 0);
  EXPECT_EQ(count.consistent, 1u);  // exactly the empty support
}

TEST(CountConsistent, CapTruncatesScan) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(24, 4, 37);
  const auto instance = tiny_instance(24, 0, truth, 41, pool);
  const ConsistencyCount count = count_consistent(*instance, 4, nullptr, 100);
  EXPECT_TRUE(count.truncated);
  EXPECT_LE(count.enumerated, 101u);
}

TEST(ExhaustiveUniqueDecode, RecoversWithEnoughQueries) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(15, 3, 43);
  const auto instance = tiny_instance(15, 25, truth, 47, pool);
  const auto decoded = exhaustive_unique_decode(*instance, 3);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, truth);
}

TEST(ExhaustiveUniqueDecode, RefusesAmbiguousInstances) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(12, 3, 53);
  const auto instance = tiny_instance(12, 1, truth, 59, pool);  // 1 query
  // One query almost never pins down a weight-3 support on 12 entries.
  const ConsistencyCount count = count_consistent(*instance, 3, &truth);
  if (count.consistent > 1) {
    EXPECT_FALSE(exhaustive_unique_decode(*instance, 3).has_value());
  }
}

TEST(ExhaustiveDecoder, DecodesConsistentSupport) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(14, 3, 61);
  const auto instance = tiny_instance(14, 20, truth, 67, pool);
  const ExhaustiveDecoder decoder;
  const Signal estimate = decoder.decode(*instance, 3, pool);
  EXPECT_TRUE(instance->is_consistent(estimate));
  EXPECT_EQ(estimate, truth);  // unique at this query count w.h.p.
  EXPECT_EQ(decoder.name(), "exhaustive");
}

TEST(ExhaustiveDecoder, ConsistencyHoldsEvenWhenAmbiguous) {
  ThreadPool pool(1);
  const Signal truth = Signal::random(12, 2, 71);
  const auto instance = tiny_instance(12, 2, truth, 73, pool);
  const Signal estimate = ExhaustiveDecoder().decode(*instance, 2, pool);
  EXPECT_TRUE(instance->is_consistent(estimate));
}

TEST(CountConsistent, AgreesWithNaiveEnumeration) {
  // Cross-check the pruned enumerator against a brute-force scan.
  ThreadPool pool(1);
  const std::uint32_t n = 10, k = 3, m = 3;
  const Signal truth = Signal::random(n, k, 79);
  const auto instance = tiny_instance(n, m, truth, 83, pool);
  std::uint64_t naive = 0;
  std::vector<std::uint32_t> support(k);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      for (std::uint32_t c = b + 1; c < n; ++c) {
        support = {a, b, c};
        if (instance->is_consistent(Signal(n, support))) ++naive;
      }
    }
  }
  EXPECT_EQ(count_consistent(*instance, k).consistent, naive);
}

}  // namespace
}  // namespace pooled

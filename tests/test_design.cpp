// Unit + property tests for the pooling designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "design/bernoulli.hpp"
#include "design/column_regular.hpp"
#include "design/design.hpp"
#include "design/distinct.hpp"
#include "design/random_regular.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

TEST(RandomRegular, DefaultsToHalfN) {
  RandomRegularDesign design(1000, 1);
  EXPECT_EQ(design.gamma(), 500u);
  EXPECT_DOUBLE_EQ(design.expected_pool_size(), 500.0);
}

TEST(RandomRegular, PoolSizeIsExactlyGamma) {
  RandomRegularDesign design(100, 7, 30);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < 50; ++q) {
    design.query_members(q, members);
    EXPECT_EQ(members.size(), 30u);
    for (auto v : members) EXPECT_LT(v, 100u);
  }
}

TEST(RandomRegular, RegenerationIsDeterministic) {
  RandomRegularDesign design(500, 42);
  std::vector<std::uint32_t> first, second;
  design.query_members(17, first);
  design.query_members(17, second);
  EXPECT_EQ(first, second);
  RandomRegularDesign clone(500, 42);
  clone.query_members(17, second);
  EXPECT_EQ(first, second);
}

TEST(RandomRegular, DistinctQueriesDiffer) {
  RandomRegularDesign design(500, 42);
  std::vector<std::uint32_t> a, b;
  design.query_members(0, a);
  design.query_members(1, b);
  EXPECT_NE(a, b);
}

TEST(RandomRegular, SeedChangesDesign) {
  RandomRegularDesign d1(500, 1), d2(500, 2);
  std::vector<std::uint32_t> a, b;
  d1.query_members(0, a);
  d2.query_members(0, b);
  EXPECT_NE(a, b);
}

TEST(RandomRegular, SamplesWithReplacement) {
  // With Γ = n/2 duplicates are essentially certain at this scale.
  RandomRegularDesign design(200, 3);
  std::vector<std::uint32_t> members;
  design.query_members(0, members);
  std::set<std::uint32_t> distinct(members.begin(), members.end());
  EXPECT_LT(distinct.size(), members.size());
}

TEST(RandomRegular, MembershipFrequencyIsUniform) {
  const std::uint32_t n = 50;
  RandomRegularDesign design(n, 11);
  std::vector<int> counts(n, 0);
  std::vector<std::uint32_t> members;
  const std::uint32_t m = 2000;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    for (auto v : members) ++counts[v];
  }
  const double expected = m * (n / 2) / static_cast<double>(n);
  for (int c : counts) EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
}

TEST(Distinct, NoDuplicatesAndExactSize) {
  DistinctDesign design(100, 5, 40);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < 30; ++q) {
    design.query_members(q, members);
    ASSERT_EQ(members.size(), 40u);
    std::set<std::uint32_t> distinct(members.begin(), members.end());
    EXPECT_EQ(distinct.size(), members.size());
  }
}

TEST(Distinct, RejectsGammaAboveN) {
  EXPECT_THROW(DistinctDesign(10, 1, 11), ContractError);
}

TEST(Distinct, Deterministic) {
  DistinctDesign design(300, 9);
  std::vector<std::uint32_t> a, b;
  design.query_members(4, a);
  design.query_members(4, b);
  EXPECT_EQ(a, b);
}

TEST(Bernoulli, PoolSizeConcentratesAroundPN) {
  BernoulliDesign design(1000, 13, 0.5);
  std::vector<std::uint32_t> members;
  double total = 0.0;
  const int m = 200;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    total += static_cast<double>(members.size());
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  }
  EXPECT_NEAR(total / m, 500.0, 15.0);
}

TEST(Bernoulli, SparseSkipPathMatchesProbability) {
  // p = 0.05 exercises the geometric-gap branch.
  BernoulliDesign design(2000, 13, 0.05);
  std::vector<std::uint32_t> members;
  double total = 0.0;
  const int m = 400;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    total += static_cast<double>(members.size());
    std::set<std::uint32_t> distinct(members.begin(), members.end());
    EXPECT_EQ(distinct.size(), members.size());  // never duplicates
    for (auto v : members) EXPECT_LT(v, 2000u);
  }
  EXPECT_NEAR(total / m, 100.0, 5.0);
}

TEST(Bernoulli, EachEntryIncludedWithProbabilityP) {
  const std::uint32_t n = 40;
  BernoulliDesign design(n, 17, 0.3);
  std::vector<int> counts(n, 0);
  std::vector<std::uint32_t> members;
  const int m = 3000;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    for (auto v : members) ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c / static_cast<double>(m), 0.3, 0.05);
}

TEST(Bernoulli, RejectsDegenerateP) {
  EXPECT_THROW(BernoulliDesign(10, 1, 0.0), ContractError);
  EXPECT_THROW(BernoulliDesign(10, 1, 1.0), ContractError);
}

TEST(ColumnRegular, EveryEntryHasExactDegree) {
  const std::uint32_t n = 60, m = 12, d = 4;
  ColumnRegularDesign design(n, m, d, 21);
  std::vector<int> degree(n, 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    for (auto v : members) ++degree[v];
  }
  for (int deg : degree) EXPECT_EQ(deg, static_cast<int>(d));
}

TEST(ColumnRegular, PoolSizesBalancedWithinOne) {
  const std::uint32_t n = 57, m = 10, d = 3;  // 171 edges over 10 pools
  ColumnRegularDesign design(n, m, d, 23);
  std::vector<std::uint32_t> members;
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::uint32_t q = 0; q < m; ++q) {
    design.query_members(q, members);
    lo = std::min(lo, members.size());
    hi = std::max(hi, members.size());
  }
  EXPECT_LE(hi - lo, 1u);
  EXPECT_NEAR(design.expected_pool_size(), 17.1, 1e-9);
}

TEST(ColumnRegular, BoundedAndRejectsOutOfRange) {
  ColumnRegularDesign design(10, 4, 2, 1);
  std::vector<std::uint32_t> members;
  EXPECT_THROW(design.query_members(4, members), ContractError);
}

TEST(Factory, BuildsEachKind) {
  DesignParams params;
  params.n = 100;
  params.seed = 5;
  EXPECT_EQ(make_design(DesignKind::RandomRegular, params)->num_entries(), 100u);
  EXPECT_NE(make_design(DesignKind::Distinct, params)->name().find("distinct"),
            std::string::npos);
  params.p = 0.25;
  EXPECT_NE(make_design(DesignKind::Bernoulli, params)->name().find("0.25"),
            std::string::npos);
}

TEST(Factory, HonorsGammaOverride) {
  DesignParams params;
  params.n = 100;
  params.seed = 5;
  params.gamma = 10;
  auto design = make_design(DesignKind::RandomRegular, params);
  std::vector<std::uint32_t> members;
  design->query_members(0, members);
  EXPECT_EQ(members.size(), 10u);
}

TEST(AllStreamableDesigns, AreUnbounded) {
  DesignParams params;
  params.n = 64;
  params.seed = 3;
  for (auto kind : {DesignKind::RandomRegular, DesignKind::Distinct,
                    DesignKind::Bernoulli}) {
    auto design = make_design(kind, params);
    // Large query indices must be generable without preparation.
    std::vector<std::uint32_t> members;
    design->query_members(1'000'000, members);
  }
}

}  // namespace
}  // namespace pooled

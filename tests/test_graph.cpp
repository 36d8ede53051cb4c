// Unit tests for the design graph as a matrix: CsrMatrix::from_instance
// and its transpose (the adjacency the baselines walk), and the degree
// statistics Δ, Δ* of the entry-statistics pass, event R included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/instance.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

/// An instance of explicit rows with all-zero results.
StreamedInstance explicit_instance(std::uint32_t n,
                                   std::vector<std::vector<std::uint32_t>> rows) {
  const auto m = static_cast<std::uint32_t>(rows.size());
  return StreamedInstance(std::make_shared<ExplicitDesign>(n, std::move(rows)), m,
                          std::vector<std::uint32_t>(m, 0));
}

StreamedInstance tiny_instance() {
  // Fig. 1 of the paper: 7 entries, 5 queries (multi-edges on query 3).
  return explicit_instance(7, {
                                  {0, 1, 2},     // a1
                                  {1, 3, 4},     // a2
                                  {0, 0, 1, 4},  // a3 multi
                                  {5, 6, 4},     // a4
                                  {6, 2, 0},     // a5
                              });
}

double row_sum(const CsrMatrix& matrix, std::uint32_t row) {
  const auto values = matrix.row_values(row);
  return std::accumulate(values.begin(), values.end(), 0.0);
}

TEST(GraphMatrix, ShapeAndCounts) {
  const CsrMatrix a = CsrMatrix::from_instance(tiny_instance());
  EXPECT_EQ(a.rows(), 5u);
  EXPECT_EQ(a.cols(), 7u);
}

TEST(GraphMatrix, QueryRowsAggregateMultiplicity) {
  const CsrMatrix a = CsrMatrix::from_instance(tiny_instance());
  const auto idx = a.row_indices(2);  // {0,0,1,4}
  const auto val = a.row_values(2);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_DOUBLE_EQ(val[0], 2.0);
  EXPECT_EQ(idx[1], 1u);
  EXPECT_DOUBLE_EQ(val[1], 1.0);
  EXPECT_EQ(idx[2], 4u);
  EXPECT_DOUBLE_EQ(val[2], 1.0);
  EXPECT_DOUBLE_EQ(row_sum(a, 2), 4.0);
}

TEST(GraphMatrix, EntryRowsAreTheExactTranspose) {
  const CsrMatrix at = CsrMatrix::from_instance(tiny_instance()).transpose();
  // Entry 0 appears in queries 0 (x1), 2 (x2 via multiplicity 2), 4 (x1).
  const auto idx = at.row_indices(0);
  const auto val = at.row_values(0);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_DOUBLE_EQ(val[0], 1.0);
  EXPECT_EQ(idx[1], 2u);
  EXPECT_DOUBLE_EQ(val[1], 2.0);
  EXPECT_EQ(idx[2], 4u);
  EXPECT_DOUBLE_EQ(val[2], 1.0);
}

TEST(GraphMatrix, DegreesCountMultiplicityDistinctDegreesDoNot) {
  const CsrMatrix at = CsrMatrix::from_instance(tiny_instance()).transpose();
  EXPECT_DOUBLE_EQ(row_sum(at, 0), 4.0);     // Δ: 1 + 2 + 1
  EXPECT_EQ(at.row_indices(0).size(), 3u);  // Δ*: three distinct queries
  EXPECT_DOUBLE_EQ(row_sum(at, 3), 1.0);
  EXPECT_EQ(at.row_indices(3).size(), 1u);
  EXPECT_DOUBLE_EQ(row_sum(at, 5), 1.0);
}

TEST(GraphMatrix, TotalEdgeMassBalances) {
  const CsrMatrix a = CsrMatrix::from_instance(tiny_instance());
  const CsrMatrix at = a.transpose();
  double by_queries = 0, by_entries = 0;
  for (std::uint32_t q = 0; q < a.rows(); ++q) by_queries += row_sum(a, q);
  for (std::uint32_t x = 0; x < at.rows(); ++x) by_entries += row_sum(at, x);
  EXPECT_DOUBLE_EQ(by_queries, by_entries);
  EXPECT_DOUBLE_EQ(by_queries, 16.0);
}

TEST(GraphMatrix, EmptyQueryIsRepresentable) {
  const CsrMatrix a = CsrMatrix::from_instance(explicit_instance(3, {{}, {1}}));
  EXPECT_EQ(a.row_indices(0).size(), 0u);
  EXPECT_DOUBLE_EQ(row_sum(a, 0), 0.0);
  EXPECT_EQ(a.transpose().row_indices(1).size(), 1u);
}

TEST(GraphMatrix, RejectsOutOfRangeEntry) {
  EXPECT_THROW((void)CsrMatrix::from_instance(explicit_instance(3, {{0, 3}})),
               ContractError);
}

TEST(GraphMatrix, RejectsOutOfRangeAccess) {
  const CsrMatrix a = CsrMatrix::from_instance(tiny_instance());
  EXPECT_THROW((void)a.row_indices(5), ContractError);
  EXPECT_THROW((void)a.transpose().row_indices(7), ContractError);
}

TEST(GraphMatrix, StoresOneSlotPerDistinctEntry) {
  const CsrMatrix a = CsrMatrix::from_instance(tiny_instance());
  EXPECT_EQ(a.nonzeros(), 15u);  // 16 draws, one duplicate collapsed
}

double mean(const auto& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TEST(DegreeStats, EntryStatsMatchTheMatrixDegrees) {
  const StreamedInstance instance = tiny_instance();
  const CsrMatrix at = CsrMatrix::from_instance(instance).transpose();
  ThreadPool pool(2);
  const EntryStats distinct = instance.entry_stats(pool);
  const EntryStats every = instance.entry_stats(pool, CountMode::EveryDraw);
  ASSERT_EQ(every.delta.size(), 7u);
  for (std::uint32_t x = 0; x < 7; ++x) {
    EXPECT_DOUBLE_EQ(static_cast<double>(every.delta[x]), row_sum(at, x));
    EXPECT_EQ(distinct.delta_star[x], at.row_indices(x).size());
  }
  EXPECT_EQ(*std::max_element(every.delta.begin(), every.delta.end()), 4u);
  EXPECT_EQ(*std::min_element(every.delta.begin(), every.delta.end()), 1u);
  EXPECT_NEAR(mean(every.delta), 16.0 / 7.0, 1e-12);
}

TEST(DegreeStats, ConcentrationHoldsForPaperDesignAtScale) {
  // Random regular design, n = 4000, m = 300: Δ ~ Bin(m n/2, 1/n) with
  // mean 150; event R should hold comfortably at c = 4.
  const std::uint32_t n = 4000, m = 300;
  const StreamedInstance instance(std::make_shared<RandomRegularDesign>(n, 777), m,
                                  std::vector<std::uint32_t>(m, 0));
  ThreadPool pool(2);
  const EntryStats distinct = instance.entry_stats(pool);
  const EntryStats every = instance.entry_stats(pool, CountMode::EveryDraw);
  EXPECT_NEAR(mean(every.delta), m / 2.0, 3.0);
  EXPECT_NEAR(mean(distinct.delta_star), thresholds::gamma() * m, 3.0);
  EXPECT_EQ(count_concentration_violations(every.delta, distinct.delta_star, m, 4.0),
            0u);
  // With a tiny constant the check must trip (sanity of the checker).
  EXPECT_GT(count_concentration_violations(every.delta, distinct.delta_star, m, 0.01),
            0u);
}

TEST(DegreeStats, GammaConstant) {
  EXPECT_NEAR(thresholds::gamma(), 0.3934693402873666, 1e-15);
}

}  // namespace
}  // namespace pooled

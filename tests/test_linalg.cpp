// Unit tests for CSR matrices, vector kernels, and the Cholesky solver.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "core/instance.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

/// The biadjacency matrix of a 3-query design over 4 entries.
CsrMatrix small_matrix(bool binary = false) {
  const StreamedInstance instance(
      std::make_shared<ExplicitDesign>(4, std::vector<std::vector<std::uint32_t>>{
                                              {0, 1, 1},  // row 0: 1,2,0,0
                                              {2},        // row 1: 0,0,1,0
                                              {0, 3},     // row 2: 1,0,0,1
                                          }),
      3, {0, 0, 0});
  return CsrMatrix::from_instance(instance, binary);
}

TEST(Csr, FromInstanceKeepsMultiplicities) {
  const CsrMatrix a = small_matrix();
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 4u);
  EXPECT_EQ(a.nonzeros(), 5u);
  const auto idx = a.row_indices(0);
  const auto val = a.row_values(0);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_DOUBLE_EQ(val[0], 1.0);
  EXPECT_EQ(idx[1], 1u);
  EXPECT_DOUBLE_EQ(val[1], 2.0);
}

TEST(Csr, BinaryPatternDropsMultiplicities) {
  const CsrMatrix a = small_matrix(/*binary=*/true);
  const auto val = a.row_values(0);
  EXPECT_DOUBLE_EQ(val[1], 1.0);
}

TEST(Csr, MultiplyMatchesDense) {
  const CsrMatrix a = small_matrix();
  ThreadPool pool(2);
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> out;
  a.multiply(pool, x, out);
  // Dense rows: [1 2 0 0; 0 0 1 0; 1 0 0 1].
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
}

TEST(Csr, MultiplyRejectsDimensionMismatch) {
  const CsrMatrix a = small_matrix();
  ThreadPool pool(1);
  std::vector<double> out;
  EXPECT_THROW(a.multiply(pool, std::vector<double>{1.0}, out), ContractError);
}

TEST(Csr, TransposeRoundTrip) {
  const CsrMatrix a = small_matrix();
  const CsrMatrix at = a.transpose();
  EXPECT_EQ(at.rows(), a.cols());
  EXPECT_EQ(at.cols(), a.rows());
  EXPECT_EQ(at.nonzeros(), a.nonzeros());
  // (A^T)^T == A as an operator.
  ThreadPool pool(1);
  const std::vector<double> x = {1.0, -1.0, 2.0, 0.5};
  std::vector<double> ax, att_x;
  a.multiply(pool, x, ax);
  at.transpose().multiply(pool, x, att_x);
  for (std::size_t i = 0; i < ax.size(); ++i) EXPECT_DOUBLE_EQ(ax[i], att_x[i]);
}

TEST(Csr, TransposeMultipliesAsTheEntryRows) {
  const CsrMatrix at = small_matrix().transpose();
  ThreadPool pool(1);
  const std::vector<double> y = {2.0, 3.0, 5.0};
  std::vector<double> r;
  at.multiply(pool, y, r);
  // Dense columns of [1 2 0 0; 0 0 1 0; 1 0 0 1] against y.
  EXPECT_EQ(r, (std::vector<double>{7.0, 4.0, 3.0, 5.0}));
}

TEST(Csr, ColumnNorms) {
  const CsrMatrix a = small_matrix();
  const auto norms = a.column_norms();
  ASSERT_EQ(norms.size(), 4u);
  EXPECT_DOUBLE_EQ(norms[0], std::sqrt(2.0));  // column 0: 1 and 1
  EXPECT_DOUBLE_EQ(norms[1], 2.0);             // column 1: single 2
  EXPECT_DOUBLE_EQ(norms[2], 1.0);
  EXPECT_DOUBLE_EQ(norms[3], 1.0);
}

TEST(Csr, ConstructorValidatesShape) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), ContractError);       // offsets
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {0}, {1.0}), ContractError);       // back()
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {0}, {1.0, 2.0}), ContractError);  // sizes
}

TEST(VectorOps, AxpyDotNorm) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {1.0, 1.0, 1.0};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{3.0, 5.0, 7.0}));
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_THROW(dot(x, std::vector<double>{1.0}), ContractError);
}

TEST(VectorOps, ScaleSubtract) {
  std::vector<double> x = {2.0, -4.0};
  scale(x, 0.5);
  EXPECT_EQ(x, (std::vector<double>{1.0, -2.0}));
  std::vector<double> out;
  subtract(std::vector<double>{5.0, 5.0}, std::vector<double>{2.0, 7.0}, out);
  EXPECT_EQ(out, (std::vector<double>{3.0, -2.0}));
}

TEST(VectorOps, SoftThreshold) {
  std::vector<double> x = {3.0, -3.0, 0.5, -0.5, 0.0};
  soft_threshold(x, 1.0);
  EXPECT_EQ(x, (std::vector<double>{2.0, -2.0, 0.0, 0.0, 0.0}));
}

TEST(VectorOps, TopKIndicesSelectsLargest) {
  const std::vector<double> values = {0.1, 5.0, 3.0, 4.0, 2.0};
  const auto top = top_k_indices(values, 3);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(VectorOps, TopKTieBreaksTowardLowerIndex) {
  const std::vector<double> values = {1.0, 1.0, 1.0, 1.0};
  const auto top = top_k_indices(values, 2);
  EXPECT_EQ(top, (std::vector<std::uint32_t>{0, 1}));
}

TEST(VectorOps, TopKClampsToSize) {
  const std::vector<double> values = {2.0, 1.0};
  EXPECT_EQ(top_k_indices(values, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices(values, 0).empty());
}

TEST(Cholesky, FactorAndSolveKnownSystem) {
  DenseMatrix a(2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_spd(a, {8.0, 7.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, RandomSpdRoundTrip) {
  std::mt19937 gen(9);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 12;
  // A = B B^T + n I is SPD.
  std::vector<std::vector<double>> b(n, std::vector<double>(n));
  for (auto& row : b) {
    for (auto& v : row) v = dist(gen);
  }
  DenseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = (i == j) ? static_cast<double>(n) : 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += b[i][p] * b[j][p];
      a.at(i, j) = acc;
    }
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = dist(gen);
  std::vector<double> rhs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) rhs[i] += a.at(i, j) * x_true[j];
  }
  const auto x = solve_spd(a, rhs);
  ASSERT_EQ(x.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, DetectsIndefiniteMatrix) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_TRUE(solve_spd(a, {1.0, 1.0}).empty());
}

TEST(Cholesky, SolveValidatesDimensions) {
  DenseMatrix a(2);
  a.at(0, 0) = a.at(1, 1) = 1.0;
  ASSERT_TRUE(cholesky_factor(a));
  EXPECT_THROW(cholesky_solve(a, {1.0}), ContractError);
}

}  // namespace
}  // namespace pooled

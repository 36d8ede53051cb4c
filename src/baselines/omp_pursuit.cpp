#include "baselines/omp_pursuit.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

DecodeOutcome OmpDecoder::decode(const StreamedInstance& instance,
                                 const DecodeContext& context) const {
  const std::uint32_t k = context.k;
  ThreadPool& pool = context.thread_pool();
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");
  if (k == 0) return one_shot_outcome(Signal(n), instance);

  // Columns of A are the entry rows of its transpose.
  const CsrMatrix cols = CsrMatrix::from_instance(instance).transpose();  // n rows

  std::vector<double> residual(m);
  for (std::uint32_t q = 0; q < m; ++q) {
    residual[q] = static_cast<double>(instance.results()[q]);
  }
  // Precompute ||A_j||_2 once.
  std::vector<double> norms(n, 0.0);
  for (std::uint32_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (double v : cols.row_values(j)) acc += v * v;
    norms[j] = std::sqrt(acc);
  }

  std::vector<std::uint32_t> support;
  std::vector<std::uint8_t> chosen(n, 0);
  std::vector<double> correlations(n);

  for (std::uint32_t iter = 0; iter < k; ++iter) {
    // Correlation pass: corr_j = <A_j, r> / ||A_j||.
    parallel_for(pool, 0, n, [&](std::size_t j) {
      if (chosen[j] || norms[j] == 0.0) {
        correlations[j] = -1.0;
        return;
      }
      const auto idx = cols.row_indices(static_cast<std::uint32_t>(j));
      const auto val = cols.row_values(static_cast<std::uint32_t>(j));
      double acc = 0.0;
      for (std::size_t s = 0; s < idx.size(); ++s) acc += val[s] * residual[idx[s]];
      correlations[j] = std::abs(acc) / norms[j];
    });
    std::uint32_t best = 0;
    double best_val = -1.0;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (correlations[j] > best_val) {
        best_val = correlations[j];
        best = j;
      }
    }
    if (best_val < 0.0) break;  // all columns exhausted
    chosen[best] = 1;
    support.push_back(best);

    // Least squares on the support: (A_S^T A_S) x = A_S^T y.
    const std::size_t s = support.size();
    DenseMatrix gram(s);
    std::vector<double> rhs(s, 0.0);
    // Dense m-length scratch of each support column for the Gram products.
    std::vector<std::vector<double>> dense_cols(s, std::vector<double>(m, 0.0));
    for (std::size_t a = 0; a < s; ++a) {
      const auto idx = cols.row_indices(support[a]);
      const auto val = cols.row_values(support[a]);
      for (std::size_t t = 0; t < idx.size(); ++t) dense_cols[a][idx[t]] = val[t];
    }
    for (std::size_t a = 0; a < s; ++a) {
      for (std::size_t b = 0; b <= a; ++b) {
        double acc = 0.0;
        for (std::uint32_t q = 0; q < m; ++q) acc += dense_cols[a][q] * dense_cols[b][q];
        gram.at(a, b) = acc;
        gram.at(b, a) = acc;
      }
      double acc = 0.0;
      for (std::uint32_t q = 0; q < m; ++q) {
        acc += dense_cols[a][q] * static_cast<double>(instance.results()[q]);
      }
      rhs[a] = acc;
    }
    std::vector<double> coeffs = solve_spd(gram, rhs);
    if (coeffs.empty()) break;  // singular Gram: duplicate columns picked

    // Residual update: r = y - A_S x_S.
    for (std::uint32_t q = 0; q < m; ++q) {
      residual[q] = static_cast<double>(instance.results()[q]);
    }
    for (std::size_t a = 0; a < s; ++a) {
      for (std::uint32_t q = 0; q < m; ++q) residual[q] -= coeffs[a] * dense_cols[a][q];
    }
  }

  std::sort(support.begin(), support.end());
  // Each of the <= k greedy iterations correlates all n columns.
  return one_shot_outcome(Signal(n, std::move(support)), instance,
                          static_cast<std::uint64_t>(k) * n);
}

}  // namespace pooled

#include "baselines/fista.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

FistaDecoder::FistaDecoder(FistaOptions options) : options_(options) {}

DecodeOutcome FistaDecoder::decode(const StreamedInstance& instance,
                                   const DecodeContext& context) const {
  const std::uint32_t k = context.k;
  ThreadPool& pool = context.thread_pool();
  const std::uint32_t n = instance.n();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");
  if (k == 0) return one_shot_outcome(Signal(n), instance);

  const CsrMatrix a = CsrMatrix::from_instance(instance);  // m x n
  const CsrMatrix at = a.transpose();                       // n x m

  std::vector<double> y(instance.m());
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    y[q] = static_cast<double>(instance.results()[q]);
  }

  // Lipschitz constant of grad f: ||A||_2^2, estimated by power iteration.
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> av, atav;
  double lipschitz = 1.0;
  for (int it = 0; it < 12; ++it) {
    a.multiply(pool, v, av);
    at.multiply(pool, av, atav);
    const double norm = nrm2(atav);
    if (norm == 0.0) break;
    lipschitz = norm;
    for (std::uint32_t i = 0; i < n; ++i) v[i] = atav[i] / norm;
  }
  const double step = 1.0 / std::max(lipschitz, 1e-12);

  // lambda from the correlation scale.
  at.multiply(pool, y, atav);
  double max_corr = 0.0;
  for (double c : atav) max_corr = std::max(max_corr, std::abs(c));
  const double lambda = options_.lambda_rel * max_corr;

  std::vector<double> x(n, 0.0);
  std::vector<double> z = x;  // momentum point
  std::vector<double> grad(n), residual(instance.m());
  double t = 1.0;
  for (std::uint32_t iter = 0; iter < options_.iterations; ++iter) {
    a.multiply(pool, z, residual);
    for (std::uint32_t q = 0; q < instance.m(); ++q) residual[q] -= y[q];
    at.multiply(pool, residual, grad);
    std::vector<double> next = z;
    axpy(-step, grad, next);
    soft_threshold(next, step * lambda);
    // Box constraint [0, 1]: the signal is binary.
    for (double& value : next) value = std::clamp(value, 0.0, 1.0);
    const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t * t)) / 2.0;
    const double momentum = (t - 1.0) / t_next;
    for (std::uint32_t i = 0; i < n; ++i) {
      z[i] = next[i] + momentum * (next[i] - x[i]);
    }
    x = std::move(next);
    t = t_next;
  }

  auto support = top_k_indices(x, k);
  // Each proximal iteration touches every coordinate once.
  return one_shot_outcome(Signal(n, std::move(support)), instance,
                          static_cast<std::uint64_t>(options_.iterations) * n);
}

}  // namespace pooled

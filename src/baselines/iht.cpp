#include "baselines/iht.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

IhtDecoder::IhtDecoder(IhtOptions options) : options_(options) {}

DecodeOutcome IhtDecoder::decode(const StreamedInstance& instance,
                                 const DecodeContext& context) const {
  const std::uint32_t k = context.k;
  ThreadPool& pool = context.thread_pool();
  const std::uint32_t n = instance.n();
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");
  if (k == 0) return one_shot_outcome(Signal(n), instance);

  const CsrMatrix a = CsrMatrix::from_instance(instance);
  const CsrMatrix at = a.transpose();

  std::vector<double> y(instance.m());
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    y[q] = static_cast<double>(instance.results()[q]);
  }

  // Step size 1/L with L = ||A||_2^2 by power iteration.
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

  std::vector<double> x(n, 0.0), grad(n), residual(instance.m());
  for (std::uint32_t iter = 0; iter < options_.iterations; ++iter) {
    a.multiply(pool, x, residual);
    for (std::uint32_t q = 0; q < instance.m(); ++q) residual[q] -= y[q];
    at.multiply(pool, residual, grad);
    axpy(-step, grad, x);
    for (double& value : x) value = std::clamp(value, 0.0, 1.0);
    // Hard projection: keep the k largest coordinates.
    const auto keep = top_k_indices(x, k);
    std::vector<double> projected(n, 0.0);
    for (std::uint32_t index : keep) projected[index] = x[index];
    x = std::move(projected);
  }

  auto support = top_k_indices(x, k);
  // Each projected-gradient iteration touches every coordinate once.
  return one_shot_outcome(Signal(n, std::move(support)), instance,
                          static_cast<std::uint64_t>(options_.iterations) * n);
}

}  // namespace pooled

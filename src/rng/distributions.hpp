// Distribution helpers over any UniformRandomBitGenerator producing u64.
//
// All samplers are deterministic functions of the generator sequence, so
// replaying a PhiloxStream replays the identical draws -- the property the
// streamed instance relies on.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "support/assert.hpp"

namespace pooled {

/// Tail of the Stirling approximation to ln(k!) (used by the BTRS binomial
/// sampler). Exact table for k < 10, asymptotic series otherwise.
double stirling_tail(double k);

/// Uniform integer in [0, n) using Lemire's nearly-divisionless method.
template <typename Gen>
std::uint64_t uniform_index(Gen& gen, std::uint64_t n) {
  POOLED_ASSERT(n > 0);
  __extension__ typedef unsigned __int128 u128;  // GCC/Clang builtin
  u128 m = static_cast<u128>(gen()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      m = static_cast<u128>(gen()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform double in [0, 1) with 53 random bits.
template <typename Gen>
double uniform_real(Gen& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) draw.
template <typename Gen>
bool bernoulli(Gen& gen, double p) {
  return uniform_real(gen) < p;
}

/// Standard normal via Marsaglia's polar method (no state, two uniforms
/// per accepted pair; one of the pair is discarded for statelessness).
template <typename Gen>
double standard_normal(Gen& gen) {
  for (;;) {
    const double u = 2.0 * uniform_real(gen) - 1.0;
    const double v = 2.0 * uniform_real(gen) - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

/// Exponential(1) draw.
template <typename Gen>
double exponential(Gen& gen) {
  double u = uniform_real(gen);
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return -std::log(u);
}

namespace detail {

/// BINV: binomial by inversion; efficient for n*min(p,1-p) small.
template <typename Gen>
std::int64_t binomial_inversion(Gen& gen, std::int64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));  // P[X = 0]
  double u = uniform_real(gen);
  std::int64_t x = 0;
  // The loop terminates a.s.; the hard cap guards degenerate rounding.
  while (u > r && x < n) {
    u -= r;
    ++x;
    r *= a / static_cast<double>(x) - s;
  }
  return x;
}

/// BTRS (Hormann 1993): transformed rejection, for n*min(p,1-p) >= 10.
template <typename Gen>
std::int64_t binomial_btrs(Gen& gen, std::int64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);

  for (;;) {
    const double u = uniform_real(gen) - 0.5;
    double v = uniform_real(gen);
    const double us = 0.5 - std::abs(u);
    const auto k = static_cast<std::int64_t>(std::floor((2.0 * a / us + b) * u + c));
    if (us >= 0.07 && v <= v_r) {
      if (k < 0 || k > n) continue;
      return k;
    }
    if (k < 0 || k > n) continue;
    const double kd = static_cast<double>(k);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(m) + stirling_tail(nd - m) - stirling_tail(kd) -
        stirling_tail(nd - kd);
    if (v <= upper) return k;
  }
}

}  // namespace detail

/// Binomial(n, p) sample. Exact distribution; BINV for small mean, BTRS
/// rejection otherwise.
template <typename Gen>
std::int64_t binomial(Gen& gen, std::int64_t n, double p) {
  POOLED_REQUIRE(n >= 0, "binomial: n must be non-negative");
  POOLED_REQUIRE(p >= 0.0 && p <= 1.0, "binomial: p must lie in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * q;
  const std::int64_t draw = (mean < 10.0) ? detail::binomial_inversion(gen, n, q)
                                          : detail::binomial_btrs(gen, n, q);
  return flipped ? n - draw : draw;
}

}  // namespace pooled

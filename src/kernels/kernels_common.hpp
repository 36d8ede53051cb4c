// Scalar reference bodies shared by both KernelSet variants.
//
// INTERNAL to src/kernels/: the scalar set wires these directly; the AVX2
// set uses them for loop tails and for its sampler's large-count guard.
// Keeping one definition per loop is what makes "bit-identical across
// variants" checkable instead of aspirational.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "rng/philox.hpp"

namespace pooled::kernels {

// ---------------------------------------------------------------------------
// Scores

inline void scalar_score_centered(const std::uint64_t* psi,
                                  const std::uint32_t* delta_star, std::size_t lo,
                                  std::size_t hi, double center, double* out) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = static_cast<double>(psi[i]) -
             static_cast<double>(delta_star[i]) * center;
  }
}

inline void scalar_score_raw(const std::uint64_t* psi, std::size_t lo,
                             std::size_t hi, double* out) {
  for (std::size_t i = lo; i < hi; ++i) out[i] = static_cast<double>(psi[i]);
}

inline void scalar_score_normalized(const std::uint64_t* psi,
                                    const std::uint32_t* delta_star, std::size_t lo,
                                    std::size_t hi, double* out) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = delta_star[i] == 0 ? 0.0
                                : static_cast<double>(psi[i]) /
                                      static_cast<double>(delta_star[i]);
  }
}

inline void scalar_score_multiedge(const std::uint64_t* psi_multi,
                                   const std::uint64_t* delta, std::size_t lo,
                                   std::size_t hi, double center, double* out) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = static_cast<double>(psi_multi[i]) -
             static_cast<double>(delta[i]) * center;
  }
}

// ---------------------------------------------------------------------------
// Philox sampling

/// Sequential 32-bit Philox consumption: block b yields out[0..3] in
/// order (PhiloxStream packs out[1]:out[0] then out[3]:out[2] into u64s
/// and sample_with_replacement reads low half first -- the flattened
/// 32-bit order is exactly out[0], out[1], out[2], out[3]).
struct ScalarPhiloxCursor {
  std::array<std::uint32_t, 2> key;
  std::uint64_t stream;
  std::uint64_t block = 0;
  std::array<std::uint32_t, 4> buffer{};
  unsigned pos = 4;  // consumed entries of buffer

  std::uint32_t next() {
    if (pos == 4) {
      const std::array<std::uint32_t, 4> counter = {
          static_cast<std::uint32_t>(block), static_cast<std::uint32_t>(block >> 32),
          static_cast<std::uint32_t>(stream),
          static_cast<std::uint32_t>(stream >> 32)};
      buffer = philox4x32(counter, key);
      pos = 0;
      ++block;
    }
    return buffer[pos++];
  }
};

inline void scalar_sample_u32(std::uint32_t key0, std::uint32_t key1,
                              std::uint64_t stream, std::uint32_t n,
                              std::uint32_t threshold, std::size_t count,
                              std::uint32_t* out) {
  ScalarPhiloxCursor cursor{{key0, key1}, stream};
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t m = static_cast<std::uint64_t>(cursor.next()) * n;
    while (static_cast<std::uint32_t>(m) < threshold) {
      m = static_cast<std::uint64_t>(cursor.next()) * n;
    }
    out[i] = static_cast<std::uint32_t>(m >> 32);
  }
}

// ---------------------------------------------------------------------------
// Bit-packed pool words

inline void scalar_or_words(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

inline std::uint64_t scalar_popcount_words(const std::uint64_t* a,
                                           std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w]));
  }
  return total;
}

inline std::uint64_t scalar_andnot_popcount(const std::uint64_t* a,
                                            const std::uint64_t* mask,
                                            std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & ~mask[w]));
  }
  return total;
}

inline std::uint64_t scalar_and_popcount(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

}  // namespace pooled::kernels

// NEON KernelSet (aarch64). vcvtq_f64_u64 is an exact, correctly-rounded
// u64 -> f64 conversion, so the score kernels match the scalar casts
// directly; popcounts ride vcnt. Sampling and the top-k fill share the
// scalar bodies.
#include "kernels/kernel_set.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "kernels/kernels_common.hpp"

namespace pooled {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

void neon_score_centered(const uint64_t* psi, const uint32_t* delta_star,
                         size_t lo, size_t hi, double center, double* out) {
  const float64x2_t center_v = vdupq_n_f64(center);
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float64x2_t p = vcvtq_f64_u64(vld1q_u64(psi + i));
    const float64x2_t d =
        vcvtq_f64_u64(vmovl_u32(vld1_u32(delta_star + i)));
    // Separate mul + sub (no vmls fusion) to stay bit-identical to the
    // scalar reference.
    vst1q_f64(out + i, vsubq_f64(p, vmulq_f64(d, center_v)));
  }
  kernels::scalar_score_centered(psi, delta_star, i, hi, center, out);
}

void neon_score_raw(const uint64_t* psi, size_t lo, size_t hi, double* out) {
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    vst1q_f64(out + i, vcvtq_f64_u64(vld1q_u64(psi + i)));
  }
  kernels::scalar_score_raw(psi, i, hi, out);
}

void neon_score_normalized(const uint64_t* psi, const uint32_t* delta_star,
                           size_t lo, size_t hi, double* out) {
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float64x2_t p = vcvtq_f64_u64(vld1q_u64(psi + i));
    const float64x2_t d = vcvtq_f64_u64(vmovl_u32(vld1_u32(delta_star + i)));
    const uint64x2_t is_zero = vceqq_f64(d, zero);
    const float64x2_t safe = vbslq_f64(is_zero, one, d);
    const float64x2_t q = vdivq_f64(p, safe);
    vst1q_f64(out + i, vbslq_f64(is_zero, zero, q));
  }
  kernels::scalar_score_normalized(psi, delta_star, i, hi, out);
}

void neon_score_multiedge(const uint64_t* psi_multi, const uint64_t* delta,
                          size_t lo, size_t hi, double center, double* out) {
  const float64x2_t center_v = vdupq_n_f64(center);
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float64x2_t p = vcvtq_f64_u64(vld1q_u64(psi_multi + i));
    const float64x2_t d = vcvtq_f64_u64(vld1q_u64(delta + i));
    vst1q_f64(out + i, vsubq_f64(p, vmulq_f64(d, center_v)));
  }
  kernels::scalar_score_multiedge(psi_multi, delta, i, hi, center, out);
}

void neon_or_words(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, vorrq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  kernels::scalar_or_words(dst + w, src + w, words - w);
}

inline uint64_t popcount_u64x2(uint64x2_t v) {
  const uint8x16_t counts = vcntq_u8(vreinterpretq_u8_u64(v));
  return vaddvq_u8(counts);  // <= 128, fits the u8 horizontal sum
}

uint64_t neon_popcount_words(const uint64_t* a, size_t words) {
  uint64_t total = 0;
  size_t w = 0;
  for (; w + 2 <= words; w += 2) total += popcount_u64x2(vld1q_u64(a + w));
  return total + kernels::scalar_popcount_words(a + w, words - w);
}

uint64_t neon_andnot_popcount(const uint64_t* a, const uint64_t* mask,
                              size_t words) {
  uint64_t total = 0;
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    total += popcount_u64x2(vbicq_u64(vld1q_u64(a + w), vld1q_u64(mask + w)));
  }
  return total + kernels::scalar_andnot_popcount(a + w, mask + w, words - w);
}

uint64_t neon_and_popcount(const uint64_t* a, const uint64_t* b, size_t words) {
  uint64_t total = 0;
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    total += popcount_u64x2(vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
  }
  return total + kernels::scalar_and_popcount(a + w, b + w, words - w);
}

size_t neon_count_greater(const double* scores, size_t n, double pivot) {
  const float64x2_t pivot_v = vdupq_n_f64(pivot);
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t gt = vcgtq_f64(vld1q_f64(scores + i), pivot_v);
    // All-ones lanes: shift to 0/1 and add.
    count += vaddvq_u64(vshrq_n_u64(gt, 63));
  }
  return static_cast<size_t>(count) +
         kernels::scalar_count_greater(scores + i, n - i, pivot);
}

}  // namespace

const KernelSet* neon_kernels_impl() {
  static const KernelSet set = {
      KernelIsa::Neon,
      neon_score_centered,
      neon_score_raw,
      neon_score_normalized,
      neon_score_multiedge,
      kernels::scalar_sample_u32,
      neon_or_words,
      neon_popcount_words,
      neon_andnot_popcount,
      neon_and_popcount,
      neon_count_greater,
      kernels::scalar_topk_fill,
  };
  return &set;
}

}  // namespace pooled

#else  // !aarch64

namespace pooled {
const KernelSet* neon_kernels_impl() { return nullptr; }
}  // namespace pooled

#endif

// SSE4.2 KernelSet: 2-wide double scores, 128-bit word ops, hardware
// popcount. Compiled with -msse4.2 -mpopcnt (per-file flags); executed
// only after runtime dispatch confirms support. Sampling shares the
// scalar body.
#include "kernels/kernel_set.hpp"

#if defined(__x86_64__) && defined(__SSE4_2__) && defined(__POPCNT__)

#include <nmmintrin.h>

#include "kernels/kernels_common.hpp"

namespace pooled {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

/// Exact u64 -> f64, 2-wide (same split-high/low construction as the
/// AVX2 variant; see kernels_avx2.cpp).
inline __m128d u64_to_f64(__m128i v) {
  const __m128d exp84 = _mm_set1_pd(19342813113834066795298816.0);  // 2^84
  const __m128d exp52 = _mm_set1_pd(4503599627370496.0);            // 2^52
  const __m128d exp84_52 = _mm_set1_pd(19342813118337666422669312.0);
  __m128i hi = _mm_srli_epi64(v, 32);
  hi = _mm_or_si128(hi, _mm_castpd_si128(exp84));
  __m128i lo = _mm_blend_epi16(v, _mm_castpd_si128(exp52), 0b11001100);
  const __m128d f = _mm_sub_pd(_mm_castsi128_pd(hi), exp84_52);
  return _mm_add_pd(f, _mm_castsi128_pd(lo));
}

/// Exact u32 -> f64 for two values.
inline __m128d u32x2_to_f64(uint32_t a, uint32_t b) {
  const __m128d exp52 = _mm_set1_pd(4503599627370496.0);  // 2^52
  __m128i wide = _mm_set_epi64x(static_cast<long long>(b), static_cast<long long>(a));
  wide = _mm_or_si128(wide, _mm_castpd_si128(exp52));
  return _mm_sub_pd(_mm_castsi128_pd(wide), exp52);
}

void sse42_score_centered(const uint64_t* psi, const uint32_t* delta_star,
                          size_t lo, size_t hi, double center, double* out) {
  const __m128d center_v = _mm_set1_pd(center);
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const __m128d p =
        u64_to_f64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(psi + i)));
    const __m128d d = u32x2_to_f64(delta_star[i], delta_star[i + 1]);
    _mm_storeu_pd(out + i, _mm_sub_pd(p, _mm_mul_pd(d, center_v)));
  }
  kernels::scalar_score_centered(psi, delta_star, i, hi, center, out);
}

void sse42_score_raw(const uint64_t* psi, size_t lo, size_t hi, double* out) {
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    _mm_storeu_pd(out + i, u64_to_f64(_mm_loadu_si128(
                               reinterpret_cast<const __m128i*>(psi + i))));
  }
  kernels::scalar_score_raw(psi, i, hi, out);
}

void sse42_score_normalized(const uint64_t* psi, const uint32_t* delta_star,
                            size_t lo, size_t hi, double* out) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d zero = _mm_setzero_pd();
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const __m128d p =
        u64_to_f64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(psi + i)));
    const __m128d d = u32x2_to_f64(delta_star[i], delta_star[i + 1]);
    const __m128d is_zero = _mm_cmpeq_pd(d, zero);
    const __m128d safe = _mm_blendv_pd(d, one, is_zero);
    _mm_storeu_pd(out + i, _mm_andnot_pd(is_zero, _mm_div_pd(p, safe)));
  }
  kernels::scalar_score_normalized(psi, delta_star, i, hi, out);
}

void sse42_score_multiedge(const uint64_t* psi_multi, const uint64_t* delta,
                           size_t lo, size_t hi, double center, double* out) {
  const __m128d center_v = _mm_set1_pd(center);
  size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const __m128d p = u64_to_f64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(psi_multi + i)));
    const __m128d d =
        u64_to_f64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(delta + i)));
    _mm_storeu_pd(out + i, _mm_sub_pd(p, _mm_mul_pd(d, center_v)));
  }
  kernels::scalar_score_multiedge(psi_multi, delta, i, hi, center, out);
}

void sse42_or_words(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + w));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + w));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), _mm_or_si128(a, b));
  }
  kernels::scalar_or_words(dst + w, src + w, words - w);
}

// With -mpopcnt the shared scalar bodies compile to one popcntq per word,
// which already saturates the load ports at 128-bit widths.

size_t sse42_count_greater(const double* scores, size_t n, double pivot) {
  const __m128d pivot_v = _mm_set1_pd(pivot);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(scores + i);
    const int mask = _mm_movemask_pd(_mm_cmpgt_pd(x, pivot_v));
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  count += kernels::scalar_count_greater(scores + i, n - i, pivot);
  return count;
}

void sse42_topk_fill(const double* scores, size_t n, double pivot, size_t ties,
                     uint32_t* out, size_t k) {
  const __m128d pivot_v = _mm_set1_pd(pivot);
  size_t taken = 0;
  size_t ties_taken = 0;
  size_t i = 0;
  for (; i + 2 <= n && taken < k; i += 2) {
    const __m128d x = _mm_loadu_pd(scores + i);
    const int gt = _mm_movemask_pd(_mm_cmpgt_pd(x, pivot_v));
    const int eq = _mm_movemask_pd(_mm_cmpeq_pd(x, pivot_v));
    if ((gt | eq) == 0) continue;
    for (size_t j = 0; j < 2 && taken < k; ++j) {
      if ((gt >> j) & 1) {
        out[taken++] = static_cast<uint32_t>(i + j);
      } else if (((eq >> j) & 1) != 0 && ties_taken < ties) {
        out[taken++] = static_cast<uint32_t>(i + j);
        ++ties_taken;
      }
    }
  }
  for (; i < n && taken < k; ++i) {
    const double s = scores[i];
    if (s > pivot) {
      out[taken++] = static_cast<uint32_t>(i);
    } else if (s == pivot && ties_taken < ties) {
      out[taken++] = static_cast<uint32_t>(i);
      ++ties_taken;
    }
  }
}

}  // namespace

const KernelSet* sse42_kernels_impl() {
  static const KernelSet set = {
      KernelIsa::Sse42,
      sse42_score_centered,
      sse42_score_raw,
      sse42_score_normalized,
      sse42_score_multiedge,
      kernels::scalar_sample_u32,
      sse42_or_words,
      kernels::scalar_popcount_words,    // popcntq via -mpopcnt
      kernels::scalar_andnot_popcount,   // popcntq via -mpopcnt
      kernels::scalar_and_popcount,      // popcntq via -mpopcnt
      sse42_count_greater,
      sse42_topk_fill,
  };
  return &set;
}

}  // namespace pooled

#else  // !(x86-64 with SSE4.2+POPCNT flags)

namespace pooled {
const KernelSet* sse42_kernels_impl() { return nullptr; }
}  // namespace pooled

#endif

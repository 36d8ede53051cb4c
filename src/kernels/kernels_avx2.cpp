// AVX2 KernelSet. Compiled with -mavx2 -mpopcnt (CMake sets per-file
// flags); only ever *executed* after runtime dispatch confirms the CPU
// supports both, so the rest of the library keeps its baseline ISA.
//
// Bit-identity notes:
//  * u64 -> double uses the split high/low magic-constant form: both
//    roundings are exact except the final add, so the result is the
//    correctly-rounded value — identical to a scalar static_cast for the
//    full 64-bit range.
//  * score kernels use separate mul/sub intrinsics (never FMA), matching
//    the scalar reference compiled with -ffp-contract=off.
//  * sample_u32 runs two independent 8-block Philox groups per step,
//    transposes their output words into stream order in registers, and
//    commits all 64 Lemire-mapped draws when none is rejected. Otherwise
//    it keeps the accepted words of the step in stream order -- exactly
//    what the scalar rule yields, since each rejected word is simply
//    skipped -- so the consumed 32-bit sequence is identical.
#include "kernels/kernel_set.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

#include "kernels/kernels_common.hpp"

namespace pooled {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

// -- exact integer -> double conversion -------------------------------------

/// Exact u64 -> f64 for all inputs (Mysticial's construction): the high
/// 32 bits ride in a 2^84-scaled double, the low 32 bits in a 2^52-scaled
/// one; the subtraction is exact and the single final add rounds once.
inline __m256d u64_to_f64(__m256i v) {
  const __m256d exp84 = _mm256_set1_pd(19342813113834066795298816.0);  // 2^84
  const __m256d exp52 = _mm256_set1_pd(4503599627370496.0);            // 2^52
  const __m256d exp84_52 = _mm256_set1_pd(19342813118337666422669312.0);
  __m256i hi = _mm256_srli_epi64(v, 32);
  hi = _mm256_or_si256(hi, _mm256_castpd_si256(exp84));
  __m256i lo = _mm256_blend_epi32(v, _mm256_castpd_si256(exp52), 0b10101010);
  const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi), exp84_52);
  return _mm256_add_pd(f, _mm256_castsi256_pd(lo));
}

/// Exact u32 -> f64 (values fit the 2^52 mantissa window directly).
inline __m256d u32_to_f64(__m128i v) {
  const __m256d exp52 = _mm256_set1_pd(4503599627370496.0);  // 2^52
  __m256i wide = _mm256_cvtepu32_epi64(v);
  wide = _mm256_or_si256(wide, _mm256_castpd_si256(exp52));
  return _mm256_sub_pd(_mm256_castsi256_pd(wide), exp52);
}

// -- scores -----------------------------------------------------------------

void avx2_score_centered(const uint64_t* psi, const uint32_t* delta_star,
                         size_t lo, size_t hi, double center, double* out) {
  const __m256d center_v = _mm256_set1_pd(center);
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p =
        u64_to_f64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi + i)));
    const __m256d d = u32_to_f64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(delta_star + i)));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(p, _mm256_mul_pd(d, center_v)));
  }
  kernels::scalar_score_centered(psi, delta_star, i, hi, center, out);
}

void avx2_score_raw(const uint64_t* psi, size_t lo, size_t hi, double* out) {
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    _mm256_storeu_pd(out + i, u64_to_f64(_mm256_loadu_si256(
                                  reinterpret_cast<const __m256i*>(psi + i))));
  }
  kernels::scalar_score_raw(psi, i, hi, out);
}

void avx2_score_normalized(const uint64_t* psi, const uint32_t* delta_star,
                           size_t lo, size_t hi, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p =
        u64_to_f64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi + i)));
    const __m256d d = u32_to_f64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(delta_star + i)));
    const __m256d is_zero = _mm256_cmp_pd(d, zero, _CMP_EQ_OQ);
    // Divide by 1 in the zero lanes (avoids spurious FP flags), then mask.
    const __m256d safe = _mm256_blendv_pd(d, one, is_zero);
    const __m256d q = _mm256_div_pd(p, safe);
    _mm256_storeu_pd(out + i, _mm256_andnot_pd(is_zero, q));
  }
  kernels::scalar_score_normalized(psi, delta_star, i, hi, out);
}

void avx2_score_multiedge(const uint64_t* psi_multi, const uint64_t* delta,
                          size_t lo, size_t hi, double center, double* out) {
  const __m256d center_v = _mm256_set1_pd(center);
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d p = u64_to_f64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(psi_multi + i)));
    const __m256d d = u64_to_f64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(delta + i)));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(p, _mm256_mul_pd(d, center_v)));
  }
  kernels::scalar_score_multiedge(psi_multi, delta, i, hi, center, out);
}

// -- Philox sampling --------------------------------------------------------

/// 32x32 -> 64 mulhi/mullo on all eight u32 lanes. The odd lanes move
/// by dword shuffles rather than 64-bit shifts, which would compete with
/// the multiplies for the same execution ports.
inline void mulhilo8(__m256i m, __m256i v, __m256i& hi, __m256i& lo) {
  const __m256i pe = _mm256_mul_epu32(v, m);  // products of lanes 0,2,4,6
  const __m256i po = _mm256_mul_epu32(_mm256_shuffle_epi32(v, 0xF5), m);
  hi = _mm256_blend_epi32(_mm256_shuffle_epi32(pe, 0xF5), po, 0b10101010);
  lo = _mm256_blend_epi32(pe, _mm256_shuffle_epi32(po, 0xA0), 0b10101010);
}

/// Philox4x32-10 over `Groups` x 8 consecutive blocks starting at
/// `block`, the groups interleaved round by round so one group's
/// multiplies hide the other's latency. On return ctr[g][w] holds output
/// word w of blocks block + 8g .. block + 8g + 7 (block < 2^32, see the
/// count guard in avx2_sample_u32).
template <int Groups>
inline void philox_groups(uint32_t key0, uint32_t key1, uint64_t stream,
                          uint32_t block, __m256i (&ctr)[Groups][4]) {
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(0xD2511F53u));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(0xCD9E8D57u));
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int g = 0; g < Groups; ++g) {
    const uint32_t first = block + 8u * static_cast<uint32_t>(g);
    ctr[g][0] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(first)), lane);
    ctr[g][1] = _mm256_setzero_si256();
    ctr[g][2] = _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(stream)));
    ctr[g][3] =
        _mm256_set1_epi32(static_cast<int>(static_cast<uint32_t>(stream >> 32)));
  }
  uint32_t k0 = key0, k1 = key1;
  for (int round = 0; round < 10; ++round) {
    const __m256i k0v = _mm256_set1_epi32(static_cast<int>(k0));
    const __m256i k1v = _mm256_set1_epi32(static_cast<int>(k1));
    for (int g = 0; g < Groups; ++g) {
      __m256i hi0, lo0, hi1, lo1;
      mulhilo8(m0, ctr[g][0], hi0, lo0);
      mulhilo8(m1, ctr[g][2], hi1, lo1);
      ctr[g][0] = _mm256_xor_si256(_mm256_xor_si256(hi1, ctr[g][1]), k0v);
      ctr[g][1] = lo1;
      ctr[g][2] = _mm256_xor_si256(_mm256_xor_si256(hi0, ctr[g][3]), k1v);
      ctr[g][3] = lo0;
    }
    k0 += 0x9E3779B9u;
    k1 += 0xBB67AE85u;
  }
}

/// Transposes one group's word-major output (ctr[w] = word w of blocks
/// 0..7) into the scalar stream's consumption order: out[v] holds blocks
/// 2v and 2v + 1, each as words 0, 1, 2, 3.
inline void stream_order(const __m256i (&ctr)[4], __m256i* out) {
  const __m256i w01_lo = _mm256_unpacklo_epi32(ctr[0], ctr[1]);  // blocks 0,1 | 4,5
  const __m256i w01_hi = _mm256_unpackhi_epi32(ctr[0], ctr[1]);  // blocks 2,3 | 6,7
  const __m256i w23_lo = _mm256_unpacklo_epi32(ctr[2], ctr[3]);
  const __m256i w23_hi = _mm256_unpackhi_epi32(ctr[2], ctr[3]);
  const __m256i b04 = _mm256_unpacklo_epi64(w01_lo, w23_lo);  // block 0 | block 4
  const __m256i b15 = _mm256_unpackhi_epi64(w01_lo, w23_lo);  // block 1 | block 5
  const __m256i b26 = _mm256_unpacklo_epi64(w01_hi, w23_hi);  // block 2 | block 6
  const __m256i b37 = _mm256_unpackhi_epi64(w01_hi, w23_hi);  // block 3 | block 7
  out[0] = _mm256_permute2x128_si256(b04, b15, 0x20);
  out[1] = _mm256_permute2x128_si256(b26, b37, 0x20);
  out[2] = _mm256_permute2x128_si256(b04, b15, 0x31);
  out[3] = _mm256_permute2x128_si256(b26, b37, 0x31);
}

/// One sampling step: the 32 * Groups words of blocks block ..
/// block + 8 * Groups - 1 become draws out[produced..]. Returns the new
/// produced count (at most `count`).
template <int Groups>
inline size_t sample_step(uint32_t key0, uint32_t key1, uint64_t stream,
                          uint32_t block, __m256i n_v, __m256i threshold_v,
                          size_t produced, size_t count, uint32_t* out) {
  constexpr int kVectors = 4 * Groups;
  __m256i ctr[Groups][4];
  philox_groups<Groups>(key0, key1, stream, block, ctr);
  __m256i words[kVectors];
  for (int g = 0; g < Groups; ++g) stream_order(ctr[g], words + 4 * g);
  // Lemire map: draw = hi(word * n), accepted iff lo(word * n) >= threshold.
  __m256i hi[kVectors];
  uint64_t accepted = 0;
  for (int v = 0; v < kVectors; ++v) {
    __m256i lo;
    mulhilo8(n_v, words[v], hi[v], lo);
    const __m256i ok = _mm256_cmpeq_epi32(_mm256_max_epu32(lo, threshold_v), lo);
    accepted |= static_cast<uint64_t>(static_cast<uint32_t>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(ok))))
                << (8 * v);
  }
  constexpr uint64_t kAll = ~uint64_t{0} >> (64 - 8 * kVectors);
  if (accepted == kAll && count - produced >= 8 * kVectors) {
    for (int v = 0; v < kVectors; ++v) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + produced + 8 * v),
                          hi[v]);
    }
    return produced + 8 * kVectors;
  }
  // A rejection or the last step: the scalar rule skips each rejected
  // word, so the draws are the accepted words in stream order.
  alignas(32) uint32_t draws[8 * kVectors];
  for (int v = 0; v < kVectors; ++v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(draws + 8 * v), hi[v]);
  }
  while (accepted != 0 && produced < count) {
    out[produced++] = draws[__builtin_ctzll(accepted)];
    accepted &= accepted - 1;
  }
  return produced;
}

void avx2_sample_u32(uint32_t key0, uint32_t key1, uint64_t stream, uint32_t n,
                     uint32_t threshold, size_t count, uint32_t* out) {
  if (count > (size_t{1} << 33)) {
    // Keeps the 32-bit block counters of the vector path valid; a pool
    // this large never occurs (gamma <= n <= 2^32).
    kernels::scalar_sample_u32(key0, key1, stream, n, threshold, count, out);
    return;
  }
  const __m256i n_v = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i threshold_v = _mm256_set1_epi32(static_cast<int>(threshold));
  uint32_t block = 0;
  size_t produced = 0;
  while (produced < count) {
    // Two groups per step; one once 32 or fewer draws remain, so small
    // pools do not generate 64 words.
    if (count - produced > 32) {
      produced = sample_step<2>(key0, key1, stream, block, n_v, threshold_v,
                                produced, count, out);
      block += 16;
    } else {
      produced = sample_step<1>(key0, key1, stream, block, n_v, threshold_v,
                                produced, count, out);
      block += 8;
    }
  }
}

// -- bit-packed pool words --------------------------------------------------

void avx2_or_words(uint64_t* dst, const uint64_t* src, size_t words) {
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(a, b));
  }
  kernels::scalar_or_words(dst + w, src + w, words - w);
}

/// Per-byte popcount via the nibble LUT, horizontally summed with SAD.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
                                       3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                       2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<uint64_t>(_mm_extract_epi64(sum, 1));
}

template <typename Combine>
inline uint64_t popcount_combined(const uint64_t* a, const uint64_t* b,
                                  size_t words, Combine&& combine,
                                  uint64_t (*scalar_tail)(const uint64_t*,
                                                          const uint64_t*, size_t)) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = b == nullptr
                           ? _mm256_setzero_si256()
                           : _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(combine(va, vb)),
                                                zero));
  }
  uint64_t total = hsum_epi64(acc);
  total += scalar_tail(a + w, b == nullptr ? nullptr : b + w, words - w);
  return total;
}

uint64_t avx2_popcount_words(const uint64_t* a, size_t words) {
  return popcount_combined(
      a, nullptr, words, [](__m256i va, __m256i) { return va; },
      [](const uint64_t* ta, const uint64_t*, size_t tw) {
        return kernels::scalar_popcount_words(ta, tw);
      });
}

uint64_t avx2_andnot_popcount(const uint64_t* a, const uint64_t* mask,
                              size_t words) {
  return popcount_combined(
      a, mask, words,
      [](__m256i va, __m256i vm) { return _mm256_andnot_si256(vm, va); },
      kernels::scalar_andnot_popcount);
}

uint64_t avx2_and_popcount(const uint64_t* a, const uint64_t* b, size_t words) {
  return popcount_combined(
      a, b, words, [](__m256i va, __m256i vb) { return _mm256_and_si256(va, vb); },
      kernels::scalar_and_popcount);
}

}  // namespace

const KernelSet* avx2_kernels_impl() {
  static const KernelSet set = {
      KernelIsa::Avx2,
      avx2_score_centered,
      avx2_score_raw,
      avx2_score_normalized,
      avx2_score_multiedge,
      avx2_sample_u32,
      avx2_or_words,
      avx2_popcount_words,
      avx2_andnot_popcount,
      avx2_and_popcount,
  };
  return &set;
}

}  // namespace pooled

#else  // !(x86-64 with AVX2+POPCNT flags)

namespace pooled {
const KernelSet* avx2_kernels_impl() { return nullptr; }
}  // namespace pooled

#endif

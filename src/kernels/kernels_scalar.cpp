// Portable scalar KernelSet: the reference every SIMD variant must match
// bit for bit.
#include "kernels/kernel_set.hpp"
#include "kernels/kernels_common.hpp"

namespace pooled {

const KernelSet* scalar_kernels_impl() {
  using namespace kernels;
  static const KernelSet set = {
      KernelIsa::Scalar,
      scalar_score_centered,
      scalar_score_raw,
      scalar_score_normalized,
      scalar_score_multiedge,
      scalar_sample_u32,
      scalar_or_words,
      scalar_popcount_words,
      scalar_andnot_popcount,
      scalar_and_popcount,
  };
  return &set;
}

}  // namespace pooled

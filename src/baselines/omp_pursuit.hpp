// Orthogonal Matching Pursuit (Pati et al. 1993), the classical greedy
// compressed-sensing baseline quoted in §I.B of the paper.
//
// k iterations; each picks the column most correlated with the residual,
// then re-solves least squares on the grown support (normal equations via
// Cholesky). The support after k iterations is the estimate.
#pragma once

#include "core/decoder.hpp"

namespace pooled {

class OmpDecoder final : public Decoder {
 public:
  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override { return "omp"; }
};

}  // namespace pooled

// FISTA (Beck & Teboulle 2009) solving the LASSO relaxation
//   min_x 0.5 ||A x - y||_2^2 + lambda ||x||_1,
// followed by top-k rounding onto {0,1}^n.
//
// Serves as the repo's Basis-Pursuit / ℓ1-minimization stand-in (§I.B of
// the paper quotes Donoho-Tanner and Foucart-Rauhut in this role);
// proximal-gradient iterations avoid shipping an LP solver.
#pragma once

#include "core/decoder.hpp"

namespace pooled {

struct FistaOptions {
  std::uint32_t iterations = 200;
  /// lambda = lambda_rel * ||A^T y||_inf.
  double lambda_rel = 0.02;
};

class FistaDecoder final : public Decoder {
 public:
  explicit FistaDecoder(FistaOptions options = {});

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override { return "fista-l1"; }

 private:
  FistaOptions options_;
};

}  // namespace pooled

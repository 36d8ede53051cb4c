// Iterative Hard Thresholding (Blumensath & Davies 2009): projected
// gradient descent onto the k-sparse set. A second compressed-sensing
// baseline with per-iteration cost O(nnz).
#pragma once

#include "core/decoder.hpp"

namespace pooled {

struct IhtOptions {
  std::uint32_t iterations = 100;
};

class IhtDecoder final : public Decoder {
 public:
  explicit IhtDecoder(IhtOptions options = {});

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override { return "iht"; }

 private:
  IhtOptions options_;
};

}  // namespace pooled

// Control baseline: guesses k uniform entries, ignoring the data.
// Calibrates the floor of every comparison plot.
#pragma once

#include "core/decoder.hpp"

namespace pooled {

class RandomGuessDecoder final : public Decoder {
 public:
  explicit RandomGuessDecoder(std::uint64_t seed = 0xBADD1Eull);

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override { return "random-guess"; }

 private:
  std::uint64_t seed_;
};

}  // namespace pooled

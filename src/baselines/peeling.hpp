// Peeling decoder over the design graph.
//
// The simplified core of sparse-graph-code decoding (our stand-in for
// Karimi et al. 2019, whose decoders are peeling on tailored sparse
// designs): repeatedly apply the two sure-inference rules
//   * residual(query) == 0                     -> all unresolved entries are 0
//   * residual(query) == unresolved multiplicity -> all unresolved entries are 1
// and propagate. On dense pools (Γ = n/2) these rules rarely fire; on the
// sparse designs it is meant for (column-regular / small Γ) they cascade.
#pragma once

#include "core/decoder.hpp"

namespace pooled {

struct PeelingOutcome {
  Signal estimate;
  std::uint32_t resolved_ones = 0;
  std::uint32_t resolved_zeros = 0;
  std::uint32_t unresolved = 0;
  std::uint32_t rounds = 0;
};

class PeelingDecoder final : public Decoder {
 public:
  /// If `fill_unresolved_as_zero` (default), unknown entries decode to 0;
  /// exact recovery then requires the cascade to resolve everything.
  explicit PeelingDecoder(bool fill_unresolved_as_zero = true);

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;

  /// Full outcome with resolution accounting (for the comparison bench).
  [[nodiscard]] PeelingOutcome decode_detailed(const StreamedInstance& instance) const;

  [[nodiscard]] std::string name() const override { return "peeling"; }

 private:
  bool fill_zero_;
};

}  // namespace pooled

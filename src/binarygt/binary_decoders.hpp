// Binary (OR-channel) group testing: the "presumably more difficult"
// variant discussed in §I.D of the paper.
//
// A query reports only whether its pool contains *at least one*
// one-entry. Coja-Oghlan et al. 2021 show an efficient decoder achieving
// m_GT ~ ln^{-1}(2) k ln(n/k) for θ ≤ ln2/(1+ln2) ≈ 0.409 -- beating the
// MN algorithm's constant for small θ despite discarding nearly all of
// the additive information. This module lets the bench reproduce exactly
// that comparison. The observations are a StreamedInstance on the
// binary channel (make_streamed_instance(..., ChannelKind::Binary)).
//
// Design note: binary GT wants much smaller pools than the quantitative
// problem -- Γ ≈ n ln2 / k makes a test negative with probability ~1/2,
// maximizing information. optimal_gt_gamma() computes that size.
//
// Classical non-adaptive decoders:
//
//   COMP (combinatorial orthogonal matching pursuit): every entry seen in
//   a negative test is definitely 0; everything else is declared 1.
//   Guarantee: no false negatives (a true positive never sits in a
//   negative test); may over-report.
//
//   DD (definite defectives): start from COMP's candidate set; an entry
//   is *definitely* 1 if some positive test contains no other candidate.
//   Guarantee: no false positives; may under-report.
//
// Both run in O(total pool mass). DD at the optimal pool size is the
// standard efficient decoder whose k ln(n/k)/ln^2 2 ... rate the paper's
// §I.D comparison refers to (we report empirical thresholds rather than
// constants).
#pragma once

#include <cstdint>
#include <string>

#include "core/decoder.hpp"
#include "core/instance.hpp"
#include "core/signal.hpp"

namespace pooled {

class ThreadPool;

/// Pool size maximizing per-test information: Γ = n ln2 / k (clamped to
/// [1, n]).
std::uint64_t optimal_gt_gamma(std::uint32_t n, std::uint32_t k);

struct BinaryDecodeResult {
  Signal estimate;
  std::uint32_t definite_zeros = 0;   ///< entries cleared by negative tests
  std::uint32_t declared_ones = 0;
};

/// COMP decoding. A test is positive iff y_q != 0: the OR outcome on the
/// binary channel, y >= 1 on the quantitative one. Runs on the
/// instance's bit-packed pools (built lazily; `pool` parallelizes that
/// one-time build) and falls back to the member-scan path only when
/// packing is over budget. Throws ContractError on a threshold-channel
/// instance, whose negative pools may still hold defectives.
BinaryDecodeResult decode_comp(const StreamedInstance& instance,
                               ThreadPool* pool = nullptr);

/// DD decoding (same channels and bit-packed/fallback split as
/// decode_comp).
BinaryDecodeResult decode_dd(const StreamedInstance& instance,
                             ThreadPool* pool = nullptr);

/// COMP/DD behind the Decoder interface: the `gt:binary` (DD, named
/// "gt-dd") and `gt:comp` registry specs. `k` is ignored: both decoders
/// infer the support size from the tests themselves.
class BinaryGtDecoder final : public Decoder {
 public:
  enum class Rule { Comp, Dd };

  explicit BinaryGtDecoder(Rule rule) : rule_(rule) {}

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Rule rule_;
};

}  // namespace pooled

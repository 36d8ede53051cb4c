// Threshold group testing: the open problem named in the paper's §VI.
//
// A query outputs 1 iff the number of one-entries it pools (with
// multiplicity) is at least a threshold T. T = 1 recovers binary group
// testing; T = ∞ reveals nothing. The paper conjectures its techniques
// extend here but calls the tailor-made application "a highly non-trivial
// challenge" -- this module provides an empirical MN-style decoder so the
// bench can chart what simple methods already achieve. The observations
// are a StreamedInstance on the threshold channel
// (make_streamed_instance(..., ChannelKind::Threshold, T)).
//
// Design guidance: a threshold-T query is most informative when its pool
// is expected to contain about T one-entries, i.e. Γ ≈ T n / k (the
// outcome is then maximally uncertain). threshold_gt_gamma() returns that
// size.
//
// The decoder: conditioned on entry i being a one-entry, a query
// containing i needs only T-1 further ones to fire, so P[positive | i ∈
// pool, σ(i)=1] > P[positive | i ∈ pool, σ(i)=0]. Summing the *centered*
// outcomes over an entry's (distinct) queries therefore separates one-
// from zero-entries -- exactly the MN thresholding idea transplanted to
// the one-bit channel:
//
//   score_i = Σ_{a ∈ ∂*x_i} (y_a − ȳ),   ȳ = mean outcome.
//
// Taking the k largest scores gives the estimate. No optimality claim is
// made (the paper calls the tight analysis open); the bench measures what
// this simple transplant achieves empirically across T.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/signal.hpp"

namespace pooled {

class ThreadPool;

/// Pool size putting the expected one-count at the threshold:
/// Γ = T n / k (clamped to [1, n]). The median of Bin(Γ, k/n) then sits
/// at T, maximizing the outcome entropy.
std::uint64_t threshold_gt_gamma(std::uint32_t n, std::uint32_t k,
                                 std::uint32_t threshold);

struct ThresholdDecodeResult {
  Signal estimate;
  std::vector<double> scores;
};

/// MN-style scoring of a one-bit (binary or threshold channel) instance.
/// On 0/1 results the Distinct entry-statistics pass MN uses is exactly
/// (positive-test count, distinct-query count) per entry.
ThresholdDecodeResult decode_threshold_mn(const StreamedInstance& instance,
                                          std::uint32_t k, ThreadPool& pool);

/// The `gt:threshold:<T>` registry spec (named "gt-threshold-<T>"). A
/// one-bit instance must have recorded the same T (the binary channel
/// counts as T = 1); a quantitative instance is collapsed to y >= T on
/// the same design -- the paper's "discard the counts" comparison as a
/// served decode.
class ThresholdGtDecoder final : public Decoder {
 public:
  explicit ThresholdGtDecoder(std::uint32_t threshold);

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::uint32_t threshold_;
};

}  // namespace pooled

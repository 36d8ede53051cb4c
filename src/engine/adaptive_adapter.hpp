// Round-based (partially-parallel) decoding behind the registry.
//
// The paper's closing open problem asks how much of the query budget a
// lab with L parallel processing units actually needs when it may stop
// between rounds. `src/adaptive/batched.hpp` studies that trade-off in
// simulation (the teacher answers fresh queries on demand); this adapter
// brings the same round structure to *serving*: the job ships an
// instance whose m queries are the budget, and the decoder consumes them
// in rounds of L, re-estimating after each round and stopping as soon as
// the estimate explains every observed result (the same observable
// stopping rule -- the truth is never consulted).
//
// The inner per-round estimator is any one-shot registry decoder, so
// `adaptive:mn:L=16` is MN re-estimated every 16 queries and
// `adaptive:gt:binary:L=8` is DD over growing binary prefixes. MN inners
// (every score variant) keep one IncrementalMn per decode and fold only
// each round's L new queries into it; the estimate is bit-identical to
// decoding the prefix. On a pool the accumulator folds the next rounds
// ahead, one pool batch for as many rounds as the pool is wide (at most
// four), and the loop takes them in order; rounds it never reaches are
// dropped unseen, so rounds, queries and the verdict are those of the
// serial fold. On the quantitative channel the accumulator's
// fingerprint makes the stopping rule O(k), and the decode publishes it
// on the instance, so the engine's final check regenerates only the
// queries the decode did not fold. Other inners re-decode the whole
// prefix each round and check it by the exact pass, as do MN inners on
// the one-bit channels. The outcome reports the real trajectory: rounds
// run, queries consumed, and why it stopped (converged / round-limit /
// exhausted / deadline / cancelled). DecodeContext::max_rounds and
// query_budget tighten the caps per decode; protocol v2 carries them as
// the `rounds` and `budget` job fields.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/decoder.hpp"

namespace pooled {

struct AdaptiveOptions {
  std::uint32_t batch_size = 16;  ///< L: queries revealed per round
};

class AdaptiveDecoder final : public Decoder {
 public:
  AdaptiveDecoder(std::shared_ptr<const Decoder> inner, AdaptiveOptions options);

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;

  /// "adaptive-<inner>-L<batch>".
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<const Decoder> inner_;
  AdaptiveOptions options_;
};

/// Factory behind the `adaptive:<inner>[:L=<batch>]` registry spec: the
/// variant is an inner decoder spec (itself possibly carrying variants)
/// with an optional trailing `:L=<batch>` segment.
std::shared_ptr<const Decoder> make_adaptive_decoder(const std::string& variant);

}  // namespace pooled

#include "baselines/random_guess.hpp"

#include "rng/philox.hpp"
#include "rng/sampling.hpp"

namespace pooled {

RandomGuessDecoder::RandomGuessDecoder(std::uint64_t seed) : seed_(seed) {}

DecodeOutcome RandomGuessDecoder::decode(const StreamedInstance& instance,
                                         const DecodeContext& context) const {
  // Key the guess on the instance shape so repeated calls differ per
  // instance but stay reproducible; a context seed overrides the
  // constructor's.
  const std::uint64_t seed = context.rng_seed != 0 ? context.rng_seed : seed_;
  PhiloxStream stream(seed, (static_cast<std::uint64_t>(instance.m()) << 32) ^
                                instance.total_result());
  return one_shot_outcome(
      Signal(instance.n(), sample_distinct(stream, instance.n(), context.k)),
      instance);
}

}  // namespace pooled

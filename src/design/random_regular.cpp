#include "design/random_regular.hpp"

#include <sstream>

#include "kernels/kernel_set.hpp"
#include "rng/splitmix64.hpp"
#include "support/assert.hpp"

namespace pooled {

RandomRegularDesign::RandomRegularDesign(std::uint32_t n, std::uint64_t seed,
                                         std::uint64_t gamma)
    : n_(n), seed_(seed), gamma_(gamma == 0 ? std::max<std::uint64_t>(1, n / 2) : gamma) {
  POOLED_REQUIRE(n > 0, "design needs n > 0");
  const std::uint64_t mixed = splitmix64_mix(seed_);
  key0_ = static_cast<std::uint32_t>(mixed);
  key1_ = static_cast<std::uint32_t>(mixed >> 32);
  lemire_threshold_ = static_cast<std::uint32_t>((0x100000000ull - n_) % n_);
}

void RandomRegularDesign::query_members(std::uint32_t query,
                                        std::vector<std::uint32_t>& out) const {
  // The dispatched kernel reproduces PhiloxStream(seed, query) +
  // sample_with_replacement bit for bit (same 32-bit consumption order,
  // same Lemire rejection); the AVX2 variant generates sixteen Philox
  // blocks per step. The stream id mixing matches PhiloxStream's ctor.
  const std::uint64_t stream =
      splitmix64_mix(static_cast<std::uint64_t>(query) ^ 0xA5A5A5A5A5A5A5A5ull);
  out.resize(static_cast<std::size_t>(gamma_));
  active_kernels().sample_u32(key0_, key1_, stream, n_, lemire_threshold_,
                              out.size(), out.data());
}

std::string RandomRegularDesign::name() const {
  std::ostringstream os;
  os << "random-regular(gamma=" << gamma_ << ")";
  return os.str();
}

}  // namespace pooled

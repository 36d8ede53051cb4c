#include "core/noise.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "rng/distributions.hpp"
#include "rng/philox.hpp"
#include "support/assert.hpp"

namespace pooled {

void add_symmetric_noise(std::vector<std::uint32_t>& results, double rate,
                         std::uint64_t seed) {
  POOLED_REQUIRE(rate >= 0.0 && rate <= 1.0, "noise rate must lie in [0,1]");
  if (rate == 0.0) return;
  PhiloxStream stream(seed, 0x4015Eull);
  for (std::uint32_t& y : results) {
    if (!bernoulli(stream, rate)) continue;
    if (bernoulli(stream, 0.5)) {
      ++y;
    } else if (y > 0) {
      --y;
    }
  }
}

void add_gaussian_noise(std::vector<std::uint32_t>& results, double sigma,
                        std::uint64_t seed) {
  POOLED_REQUIRE(sigma >= 0.0, "noise sigma must be non-negative");
  if (sigma == 0.0) return;
  PhiloxStream stream(seed, 0x6A755ull);
  for (std::uint32_t& y : results) {
    const double noise = sigma * standard_normal(stream);
    const double perturbed = static_cast<double>(y) + std::llround(noise);
    y = perturbed < 0.0 ? 0u : static_cast<std::uint32_t>(perturbed);
  }
}

namespace {

constexpr const char* kNoneName = "none";
constexpr const char* kSymmetricName = "sym";
constexpr const char* kGaussianName = "gauss";

double parse_level(const std::string& text) {
  std::istringstream stream(text);
  double level = 0.0;
  stream >> level;
  POOLED_REQUIRE(static_cast<bool>(stream) && stream.eof(),
                 "noise level must be a number, got '" + text + "'");
  return level;  // range/finiteness validated by NoiseModel::make
}

std::uint64_t parse_seed(const std::string& text) {
  std::uint64_t seed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), seed);
  POOLED_REQUIRE(ec == std::errc() && ptr == text.data() + text.size(),
                 "noise seed must be an unsigned integer, got '" + text + "'");
  return seed;
}

}  // namespace

std::string NoiseModel::to_string() const {
  // Disabled models canonicalize to "none" so equivalent decodes (and
  // their cache keys / wire frames) never key apart.
  if (!enabled()) return kNoneName;
  std::ostringstream out;
  out.precision(17);
  out << kind_name() << ':' << level << ':' << seed;
  return out.str();
}

std::string NoiseModel::kind_name() const {
  switch (kind) {
    case NoiseKind::None:
      return kNoneName;
    case NoiseKind::Symmetric:
      return kSymmetricName;
    case NoiseKind::Gaussian:
      return kGaussianName;
  }
  return kNoneName;
}

NoiseModel NoiseModel::make(const std::string& kind_name, double level,
                            std::uint64_t seed) {
  NoiseModel model;
  if (kind_name == kNoneName) {
    // "none:0.5" is a contradiction, not a no-op: fail loudly.
    POOLED_REQUIRE(level == 0.0, "noise kind 'none' takes no level");
    return model;
  }
  if (kind_name == kSymmetricName) {
    model.kind = NoiseKind::Symmetric;
    POOLED_REQUIRE(std::isfinite(level) && level >= 0.0 && level <= 1.0,
                   "symmetric noise rate must lie in [0,1]");
  } else if (kind_name == kGaussianName) {
    model.kind = NoiseKind::Gaussian;
    POOLED_REQUIRE(std::isfinite(level) && level >= 0.0,
                   "noise sigma must be finite and non-negative");
  } else {
    POOLED_REQUIRE(false, "unknown noise kind '" + kind_name +
                              "' (expected none|sym|gauss)");
  }
  model.level = level;
  model.seed = seed;
  return model;
}

NoiseModel NoiseModel::parse(const std::string& text) {
  if (text.empty() || text == kNoneName) return NoiseModel{};
  const auto first = text.find(':');
  POOLED_REQUIRE(first != std::string::npos,
                 "noise model '" + text +
                     "' is missing its level (expected "
                     "none|sym:<level>[:<seed>]|gauss:<level>[:<seed>])");
  const auto second = text.find(':', first + 1);
  double level = 0.0;
  std::uint64_t seed = 0;
  if (second == std::string::npos) {
    level = parse_level(text.substr(first + 1));
  } else {
    level = parse_level(text.substr(first + 1, second - first - 1));
    seed = parse_seed(text.substr(second + 1));
  }
  return make(text.substr(0, first), level, seed);
}

void apply_noise(std::vector<std::uint32_t>& results, const NoiseModel& model,
                 ChannelKind channel) {
  if (!model.enabled()) return;
  if (model.kind == NoiseKind::Symmetric &&
      channel != ChannelKind::Quantitative) {
    // On a one-bit channel a +-1 count shift would only flip outcomes at
    // half the nominal rate (+1 on a positive and the clamped -1 on a
    // negative are no-ops after re-collapsing), so symmetric noise is
    // implemented as what it means there: a bit-flip channel at `level`.
    PhiloxStream stream(model.seed, 0xF11Bull);
    for (std::uint32_t& y : results) {
      if (bernoulli(stream, model.level)) y = y != 0 ? 0 : 1;
    }
    return;
  }
  switch (model.kind) {
    case NoiseKind::None:
      return;
    case NoiseKind::Symmetric:
      add_symmetric_noise(results, model.level, model.seed);
      break;
    case NoiseKind::Gaussian:
      add_gaussian_noise(results, model.level, model.seed);
      break;
  }
  if (channel != ChannelKind::Quantitative) {
    // One-bit channels only observe 0/1; re-collapse the perturbed
    // counts so the vector is still a valid observation.
    for (std::uint32_t& y : results) y = y != 0 ? 1 : 0;
  }
}

std::shared_ptr<const StreamedInstance> with_noise(
    std::shared_ptr<const StreamedInstance> instance, const NoiseModel& model) {
  POOLED_REQUIRE(instance != nullptr, "with_noise needs an instance");
  if (!model.enabled()) return instance;
  std::vector<std::uint32_t> y = instance->results();
  apply_noise(y, model, instance->channel());
  return std::make_shared<StreamedInstance>(instance->design_ptr(), instance->m(),
                                            std::move(y), instance->channel(),
                                            instance->channel_threshold());
}

}  // namespace pooled

#include "engine/registry.hpp"

#include <charconv>
#include <sstream>

#include "baselines/fista.hpp"
#include "baselines/iht.hpp"
#include "baselines/omp_pursuit.hpp"
#include "baselines/peeling.hpp"
#include "baselines/random_guess.hpp"
#include "binarygt/binary_decoders.hpp"
#include "core/mn.hpp"
#include "engine/adaptive_adapter.hpp"
#include "support/assert.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace pooled {

namespace {

/// Splits "name:variant" at the first ':' ("name" -> empty variant).
std::pair<std::string, std::string> split_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return {spec, std::string()};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

std::shared_ptr<const Decoder> make_mn(const std::string& variant) {
  MnOptions options;
  if (variant.empty()) {
    options.score = MnScore::CentralizedPsi;
  } else if (variant == "multi-edge") {
    options.score = MnScore::MultiEdgePsi;
  } else if (variant == "raw") {
    options.score = MnScore::RawPsi;
  } else if (variant == "normalized") {
    options.score = MnScore::NormalizedPsi;
  } else {
    POOLED_REQUIRE(false, "unknown mn variant '" + variant +
                              "' (expected multi-edge|raw|normalized)");
  }
  return std::make_shared<MnDecoder>(options);
}

std::shared_ptr<const Decoder> make_gt(const std::string& variant) {
  if (variant == "binary") {
    return std::make_shared<BinaryGtDecoder>(BinaryGtDecoder::Rule::Dd);
  }
  if (variant == "comp") {
    return std::make_shared<BinaryGtDecoder>(BinaryGtDecoder::Rule::Comp);
  }
  constexpr const char* kThresholdPrefix = "threshold:";
  if (variant.rfind(kThresholdPrefix, 0) == 0) {
    const std::string text = variant.substr(std::string(kThresholdPrefix).size());
    std::uint32_t threshold = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), threshold);
    POOLED_REQUIRE(
        ec == std::errc() && ptr == text.data() + text.size() && threshold >= 1,
        "gt threshold must be an integer >= 1, got '" + text + "'");
    return std::make_shared<ThresholdGtDecoder>(threshold);
  }
  POOLED_REQUIRE(false, "unknown gt variant '" + variant +
                            "' (expected binary|comp|threshold:<T>)");
  return nullptr;
}

std::shared_ptr<const Decoder> make_random(const std::string& variant) {
  if (variant.empty()) return std::make_shared<RandomGuessDecoder>();
  std::uint64_t seed = 0;
  const auto [ptr, ec] =
      std::from_chars(variant.data(), variant.data() + variant.size(), seed);
  POOLED_REQUIRE(ec == std::errc() && ptr == variant.data() + variant.size(),
                 "random variant must be a seed integer, got '" + variant + "'");
  return std::make_shared<RandomGuessDecoder>(seed);
}

template <class DecoderType>
DecoderFactory variantless(const std::string& name) {
  return [name](const std::string& variant) -> std::shared_ptr<const Decoder> {
    POOLED_REQUIRE(variant.empty(),
                   "decoder '" + name + "' takes no variant, got ':" + variant + "'");
    return std::make_shared<DecoderType>();
  };
}

}  // namespace

void DecoderRegistry::add(const std::string& name, const std::string& variants_help,
                          std::string description, DecoderFactory factory) {
  POOLED_REQUIRE(!name.empty() && name.find(':') == std::string::npos,
                 "decoder name must be non-empty and colon-free");
  POOLED_REQUIRE(static_cast<bool>(factory), "decoder factory must be callable");
  const bool inserted =
      entries_
          .emplace(name,
                   Entry{variants_help, std::move(description), std::move(factory)})
          .second;
  POOLED_REQUIRE(inserted, "decoder '" + name + "' already registered");
}

void DecoderRegistry::add(const std::string& name, const std::string& variants_help,
                          DecoderFactory factory) {
  add(name, variants_help, std::string(), std::move(factory));
}

std::shared_ptr<const Decoder> DecoderRegistry::create(const std::string& spec) const {
  const auto [name, variant] = split_spec(spec);
  const auto it = entries_.find(name);
  POOLED_REQUIRE(it != entries_.end(),
                 "unknown decoder spec '" + spec + "' (known: " + spec_help() + ")");
  auto decoder = it->second.factory(variant);
  POOLED_REQUIRE(decoder != nullptr, "factory for '" + name + "' returned null");
  return decoder;
}

bool DecoderRegistry::contains(const std::string& spec) const {
  return entries_.count(split_spec(spec).first) > 0;
}

std::vector<std::string> DecoderRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<DecoderRegistry::HelpEntry> DecoderRegistry::help_entries() const {
  std::vector<HelpEntry> rows;
  rows.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    rows.push_back(HelpEntry{name, entry.variants_help, entry.description});
  }
  return rows;
}

std::string DecoderRegistry::spec_help() const {
  std::ostringstream help;
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) help << " | ";
    first = false;
    help << name << entry.variants_help;
  }
  return help.str();
}

const DecoderRegistry& DecoderRegistry::global() {
  static const DecoderRegistry registry = [] {
    DecoderRegistry r;
    r.add("mn", "[:multi-edge|raw|normalized]",
          "Maximum Neighborhood scoring (Algorithm 1); variants pick the "
          "score ablation",
          make_mn);
    r.add("gt", ":binary|comp|threshold:<T>",
          "group-testing decoders: DD (binary), COMP, and MN on the "
          "threshold-T channel",
          make_gt);
    r.add("adaptive", ":<inner>[:L=<batch>]",
          "round-based decoding: reveal L queries per round with the inner "
          "decoder, stop once the estimate explains all observations "
          "(reports rounds/queries/stop)",
          make_adaptive_decoder);
    r.add("omp", "", "orthogonal matching pursuit (greedy compressed sensing)",
          variantless<OmpDecoder>("omp"));
    r.add("fista", "", "FISTA on the LASSO relaxation (l1 stand-in)",
          variantless<FistaDecoder>("fista"));
    r.add("iht", "", "iterative hard thresholding (projected gradient)",
          variantless<IhtDecoder>("iht"));
    r.add("peeling", "", "sure-inference peeling cascade for sparse designs",
          variantless<PeelingDecoder>("peeling"));
    r.add("random", "[:<seed>]", "uniform k-subset guess (comparison floor)",
          make_random);
    return r;
  }();
  return registry;
}

std::shared_ptr<const Decoder> make_decoder(const std::string& spec) {
  return DecoderRegistry::global().create(spec);
}

}  // namespace pooled

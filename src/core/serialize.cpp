#include "core/serialize.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"

namespace pooled {

namespace {
constexpr const char* kMagic = "pooled-instance";
constexpr const char* kVersion = "v1";
}  // namespace

std::string design_kind_name(DesignKind kind) {
  switch (kind) {
    case DesignKind::RandomRegular:
      return "random-regular";
    case DesignKind::Distinct:
      return "distinct";
    case DesignKind::Bernoulli:
      return "bernoulli";
  }
  POOLED_REQUIRE(false, "unknown design kind");
  return {};
}

DesignKind design_kind_from_name(const std::string& name) {
  if (name == "random-regular") return DesignKind::RandomRegular;
  if (name == "distinct") return DesignKind::Distinct;
  if (name == "bernoulli") return DesignKind::Bernoulli;
  POOLED_REQUIRE(false, "unknown design kind '" + name + "'");
  return DesignKind::RandomRegular;
}

std::string channel_kind_name(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::Quantitative:
      return "quantitative";
    case ChannelKind::Binary:
      return "binary";
    case ChannelKind::Threshold:
      return "threshold";
  }
  POOLED_REQUIRE(false, "unknown channel kind");
  return {};
}

ChannelKind channel_kind_from_name(const std::string& name) {
  if (name == "quantitative") return ChannelKind::Quantitative;
  if (name == "binary") return ChannelKind::Binary;
  if (name == "threshold") return ChannelKind::Threshold;
  POOLED_REQUIRE(false, "unknown channel kind '" + name + "'");
  return ChannelKind::Quantitative;
}

std::unique_ptr<StreamedInstance> InstanceSpec::to_instance() const {
  auto design = make_design(kind, params);
  return std::make_unique<StreamedInstance>(std::move(design), m, y, channel,
                                            threshold);
}

InstanceSpec make_spec(DesignKind kind, const DesignParams& params,
                       const std::vector<std::uint32_t>& results,
                       ChannelKind channel, std::uint32_t threshold) {
  InstanceSpec spec;
  spec.kind = kind;
  spec.params = params;
  spec.channel = channel;
  // The threshold only exists on the Threshold channel; canonicalize so a
  // spec and its save/load round trip are identical (the `t` field is not
  // serialized for other channels).
  spec.threshold = channel == ChannelKind::Threshold ? threshold : 1;
  spec.m = static_cast<std::uint32_t>(results.size());
  spec.y = results;
  return spec;
}

InstanceSpec simulate_spec(DesignKind kind, const DesignParams& params,
                           std::uint32_t m, const Signal& truth, ThreadPool& pool,
                           ChannelKind channel, std::uint32_t threshold) {
  auto design = make_design(kind, params);
  const auto y = simulate_queries(*design, m, truth, pool, channel, threshold);
  return make_spec(kind, params, y, channel, threshold);
}

std::string instance_digest(const InstanceSpec& spec) {
  // Canonical byte string: every field at full precision (hexfloat for p,
  // so digests never collapse values the text format would round).
  // The threshold is canonicalized to 1 off the Threshold channel (it is
  // meaningless and unserialized there), so hand-built specs digest the
  // same as their save/load round trip.
  const std::uint32_t threshold =
      spec.channel == ChannelKind::Threshold ? spec.threshold : 1;
  std::ostringstream canon;
  canon << design_kind_name(spec.kind) << '|' << spec.params.n << '|'
        << spec.params.seed << '|' << spec.params.gamma << '|' << std::hexfloat
        << spec.params.p << '|' << channel_kind_name(spec.channel) << '|'
        << threshold << '|' << spec.m << '|';
  for (std::uint32_t value : spec.y) canon << value << ',';
  const std::string bytes = canon.str();
  // Two FNV-1a 64 passes with distinct offset bases -> 128 digest bits.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lo = 14695981039346656037ULL;
  std::uint64_t hi = 0x9E3779B97F4A7C15ULL;
  for (unsigned char c : bytes) {
    lo = (lo ^ c) * kPrime;
    hi = (hi ^ c) * kPrime;
  }
  std::ostringstream hex;
  hex << std::hex << std::setfill('0') << std::setw(16) << lo << std::setw(16)
      << hi;
  return hex.str();
}

void save_instance(std::ostream& os, const InstanceSpec& spec) {
  POOLED_REQUIRE(spec.y.size() == spec.m, "spec results length mismatch");
  os << kMagic << ' ' << kVersion << '\n';
  os << "design " << design_kind_name(spec.kind) << '\n';
  os << "n " << spec.params.n << '\n';
  os << "seed " << spec.params.seed << '\n';
  os << "gamma " << spec.params.gamma << '\n';
  os << "p " << spec.params.p << '\n';
  if (spec.channel != ChannelKind::Quantitative) {
    os << "channel " << channel_kind_name(spec.channel) << '\n';
    if (spec.channel == ChannelKind::Threshold) os << "t " << spec.threshold << '\n';
  }
  os << "m " << spec.m << '\n';
  os << "y";
  for (std::uint32_t value : spec.y) os << ' ' << value;
  os << '\n';
  POOLED_REQUIRE(static_cast<bool>(os), "instance serialization failed");
}

InstanceSpec load_instance(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  POOLED_REQUIRE(static_cast<bool>(is) && magic == kMagic,
                 "not a pooled-instance stream");
  POOLED_REQUIRE(version == kVersion, "unsupported format version " + version);
  InstanceSpec spec;
  std::string key;
  bool saw_m = false;
  bool saw_t = false;
  while (is >> key) {
    if (key == "design") {
      std::string name;
      POOLED_REQUIRE(static_cast<bool>(is >> name), "truncated design field");
      spec.kind = design_kind_from_name(name);
    } else if (key == "n") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.params.n), "truncated n");
    } else if (key == "seed") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.params.seed), "truncated seed");
    } else if (key == "gamma") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.params.gamma), "truncated gamma");
    } else if (key == "p") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.params.p), "truncated p");
    } else if (key == "channel") {
      std::string name;
      POOLED_REQUIRE(static_cast<bool>(is >> name), "truncated channel field");
      spec.channel = channel_kind_from_name(name);
    } else if (key == "t") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.threshold), "truncated t");
      POOLED_REQUIRE(spec.threshold >= 1, "channel threshold must be >= 1");
      saw_t = true;
    } else if (key == "m") {
      POOLED_REQUIRE(static_cast<bool>(is >> spec.m), "truncated m");
      POOLED_REQUIRE(spec.m <= kMaxInstanceResults,
                     "m " + std::to_string(spec.m) + " exceeds the limit of " +
                         std::to_string(kMaxInstanceResults) + " results");
      saw_m = true;
    } else if (key == "y") {
      POOLED_REQUIRE(saw_m, "y field must follow m");
      // Read incrementally rather than resizing to m up front, so a
      // hostile header claiming a huge m fails on the missing values
      // instead of attempting a giant allocation.
      spec.y.clear();
      spec.y.reserve(std::min(spec.m, kMaxInstanceResults));
      for (std::uint32_t i = 0; i < spec.m; ++i) {
        std::uint32_t value = 0;
        POOLED_REQUIRE(static_cast<bool>(is >> value), "truncated y values");
        spec.y.push_back(value);
      }
    } else {
      POOLED_REQUIRE(false, "unknown field '" + key + "'");
    }
  }
  POOLED_REQUIRE(spec.params.n > 0, "spec missing n");
  POOLED_REQUIRE(spec.y.size() == spec.m, "spec results length mismatch");
  // The threshold must be explicit exactly when it is meaningful: data
  // generated at T=3 silently loading as T=1 would misinterpret every
  // outcome downstream.
  if (spec.channel == ChannelKind::Threshold) {
    POOLED_REQUIRE(saw_t, "channel threshold requires a t field");
  } else {
    POOLED_REQUIRE(!saw_t, "t field is only valid with channel threshold");
  }
  return spec;
}

void save_instance_file(const std::string& path, const InstanceSpec& spec) {
  std::ofstream os(path);
  POOLED_REQUIRE(static_cast<bool>(os), "cannot open '" + path + "' for writing");
  save_instance(os, spec);
}

InstanceSpec load_instance_file(const std::string& path) {
  std::ifstream is(path);
  POOLED_REQUIRE(static_cast<bool>(is), "cannot open '" + path + "' for reading");
  return load_instance(is);
}

}  // namespace pooled

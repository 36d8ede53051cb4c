// Tests for instance (de)serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/metrics.hpp"
#include "core/mn.hpp"
#include "core/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {
namespace {

InstanceSpec sample_spec() {
  DesignParams params;
  params.n = 500;
  params.seed = 77;
  params.gamma = 0;
  params.p = 0.5;
  Signal truth = Signal::random(500, 7, 3);
  ThreadPool pool(1);
  auto design = make_design(DesignKind::RandomRegular, params);
  const auto y = simulate_queries(*design, 40, truth, pool);
  return make_spec(DesignKind::RandomRegular, params, y);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const InstanceSpec original = sample_spec();
  std::stringstream buffer;
  save_instance(buffer, original);
  const InstanceSpec loaded = load_instance(buffer);
  EXPECT_EQ(loaded.kind, original.kind);
  EXPECT_EQ(loaded.params.n, original.params.n);
  EXPECT_EQ(loaded.params.seed, original.params.seed);
  EXPECT_EQ(loaded.params.gamma, original.params.gamma);
  EXPECT_DOUBLE_EQ(loaded.params.p, original.params.p);
  EXPECT_EQ(loaded.m, original.m);
  EXPECT_EQ(loaded.y, original.y);
}

TEST(Serialize, ReloadedInstanceDecodesIdentically) {
  ThreadPool pool(1);
  const InstanceSpec original = sample_spec();
  std::stringstream buffer;
  save_instance(buffer, original);
  const InstanceSpec loaded = load_instance(buffer);
  const auto a = original.to_instance();
  const auto b = loaded.to_instance();
  const MnDecoder decoder;
  EXPECT_EQ(decoder.decode(*a, 7, pool), decoder.decode(*b, 7, pool));
  // Regenerated queries are identical (same seed, same design).
  std::vector<std::uint32_t> ma, mb;
  a->query_members(5, ma);
  b->query_members(5, mb);
  EXPECT_EQ(ma, mb);
}

TEST(Serialize, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pooled_spec_test.inst").string();
  const InstanceSpec original = sample_spec();
  save_instance_file(path, original);
  const InstanceSpec loaded = load_instance_file(path);
  EXPECT_EQ(loaded.y, original.y);
  std::filesystem::remove(path);
}

TEST(Serialize, KindNamesRoundTrip) {
  for (auto kind : {DesignKind::RandomRegular, DesignKind::Distinct,
                    DesignKind::Bernoulli}) {
    EXPECT_EQ(design_kind_from_name(design_kind_name(kind)), kind);
  }
  EXPECT_THROW(design_kind_from_name("nope"), ContractError);
}

TEST(Serialize, RejectsWrongMagic) {
  std::stringstream buffer("other-format v1\n");
  EXPECT_THROW(load_instance(buffer), ContractError);
}

TEST(Serialize, RejectsUnknownVersion) {
  std::stringstream buffer("pooled-instance v999\nn 10\nm 0\ny\n");
  EXPECT_THROW(load_instance(buffer), ContractError);
}

TEST(Serialize, RejectsTruncatedResults) {
  std::stringstream buffer(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\ngamma 0\n"
      "p 0.5\nm 3\ny 1 2\n");
  EXPECT_THROW(load_instance(buffer), ContractError);
}

TEST(Serialize, RejectsUnknownField) {
  std::stringstream buffer(
      "pooled-instance v1\ndesign random-regular\nbogus 3\n");
  EXPECT_THROW(load_instance(buffer), ContractError);
}

TEST(Serialize, RejectsMissingN) {
  std::stringstream buffer("pooled-instance v1\ndesign random-regular\nm 0\ny\n");
  EXPECT_THROW(load_instance(buffer), ContractError);
}

TEST(Serialize, FileErrorsSurface) {
  EXPECT_THROW(load_instance_file("/does/not/exist.inst"), ContractError);
  EXPECT_THROW(save_instance_file("/does/not/exist/dir/x.inst", sample_spec()),
               ContractError);
}

TEST(Serialize, ChannelRoundTripsAndDefaultsToQuantitative) {
  InstanceSpec spec = sample_spec();
  for (std::uint32_t& value : spec.y) value = value > 220 ? 1 : 0;
  spec.channel = ChannelKind::Threshold;
  spec.threshold = 3;
  std::stringstream buffer;
  save_instance(buffer, spec);
  EXPECT_NE(buffer.str().find("channel threshold\nt 3\n"), std::string::npos);
  const InstanceSpec loaded = load_instance(buffer);
  EXPECT_EQ(loaded.channel, ChannelKind::Threshold);
  EXPECT_EQ(loaded.threshold, 3u);
  EXPECT_EQ(loaded.y, spec.y);

  // Pre-channel v1 files (no `channel` line) stay loadable as
  // quantitative.
  const InstanceSpec plain = sample_spec();
  std::stringstream plain_buffer;
  save_instance(plain_buffer, plain);
  EXPECT_EQ(plain_buffer.str().find("channel"), std::string::npos);
  EXPECT_EQ(load_instance(plain_buffer).channel, ChannelKind::Quantitative);
}

TEST(Serialize, ThresholdFieldRequiredExactlyOnThresholdChannel) {
  // Threshold outcomes without an explicit T would silently load as T=1
  // and misinterpret every downstream consistency check.
  std::stringstream missing_t(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "channel threshold\nm 2\ny 1 0\n");
  EXPECT_THROW(load_instance(missing_t), ContractError);
  std::stringstream stray_t(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "channel binary\nt 2\nm 2\ny 1 0\n");
  EXPECT_THROW(load_instance(stray_t), ContractError);
  std::stringstream good(
      "pooled-instance v1\ndesign random-regular\nn 10\nseed 1\n"
      "channel threshold\nt 2\nm 2\ny 1 0\n");
  EXPECT_EQ(load_instance(good).threshold, 2u);
}

TEST(Serialize, ChannelNamesRoundTrip) {
  for (auto kind : {ChannelKind::Quantitative, ChannelKind::Binary,
                    ChannelKind::Threshold}) {
    EXPECT_EQ(channel_kind_from_name(channel_kind_name(kind)), kind);
  }
  EXPECT_THROW(channel_kind_from_name("or-else"), ContractError);
}

TEST(Serialize, ChanneledInstanceChecksConsistencyThroughTheChannel) {
  ThreadPool pool(1);
  DesignParams params;
  params.n = 60;
  params.seed = 5;
  params.gamma = 10;
  auto design = make_design(DesignKind::RandomRegular, params);
  const Signal truth = Signal::random(60, 3, 8);
  auto y = simulate_queries(*design, 50, truth, pool);
  for (std::uint32_t& value : y) value = apply_channel(value, ChannelKind::Binary, 1);
  const InstanceSpec spec =
      make_spec(DesignKind::RandomRegular, params, y, ChannelKind::Binary);
  const auto instance = spec.to_instance();
  EXPECT_EQ(instance->channel(), ChannelKind::Binary);
  // The truth reproduces the OR outcomes even though its quantitative
  // counts differ from the stored 0/1 values.
  EXPECT_TRUE(instance->is_consistent(truth));
  EXPECT_EQ(simulate_queries(instance->design(), instance->m(), truth, pool,
                             instance->channel(), instance->channel_threshold()),
            y);
}

TEST(Serialize, DigestIsStableAndContentSensitive) {
  const InstanceSpec spec = sample_spec();
  const std::string digest = instance_digest(spec);
  EXPECT_EQ(digest.size(), 32u);
  EXPECT_EQ(instance_digest(spec), digest);  // deterministic

  InstanceSpec changed_y = spec;
  changed_y.y[0] ^= 1;
  EXPECT_NE(instance_digest(changed_y), digest);

  InstanceSpec changed_seed = spec;
  changed_seed.params.seed ^= 1;
  EXPECT_NE(instance_digest(changed_seed), digest);

  InstanceSpec changed_p = spec;
  changed_p.params.p += 1e-13;  // below the text format's precision
  EXPECT_NE(instance_digest(changed_p), digest);

  InstanceSpec changed_channel = spec;
  for (std::uint32_t& value : changed_channel.y) value = value > 220 ? 1 : 0;
  changed_channel.channel = ChannelKind::Binary;
  EXPECT_NE(instance_digest(changed_channel), digest);

  InstanceSpec threshold2 = changed_channel;
  threshold2.channel = ChannelKind::Threshold;
  threshold2.threshold = 2;
  InstanceSpec threshold3 = changed_channel;
  threshold3.channel = ChannelKind::Threshold;
  threshold3.threshold = 3;
  EXPECT_NE(instance_digest(threshold2), instance_digest(threshold3));
}

TEST(Serialize, DigestSurvivesSaveLoadRoundTripOnEveryChannel) {
  // The threshold field is unserialized off the Threshold channel, so a
  // hand-built spec carrying a stray threshold must still digest the
  // same as its reloaded self (make_spec also canonicalizes it away).
  InstanceSpec binary = sample_spec();
  for (std::uint32_t& value : binary.y) value = value > 220 ? 1 : 0;
  binary.channel = ChannelKind::Binary;
  binary.threshold = 7;  // meaningless on this channel
  InstanceSpec threshold = binary;
  threshold.channel = ChannelKind::Threshold;
  threshold.threshold = 2;
  for (const InstanceSpec& spec : {sample_spec(), binary, threshold}) {
    std::stringstream buffer;
    save_instance(buffer, spec);
    const InstanceSpec loaded = load_instance(buffer);
    EXPECT_EQ(instance_digest(loaded), instance_digest(spec))
        << channel_kind_name(spec.channel);
  }
  EXPECT_EQ(make_spec(binary.kind, binary.params, binary.y, ChannelKind::Binary,
                      /*threshold=*/7)
                .threshold,
            1u);
}

}  // namespace
}  // namespace pooled

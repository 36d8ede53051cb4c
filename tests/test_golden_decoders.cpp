// Golden regression battery: a fixed-seed instance decoded by every
// registry spec against checked-in expected supports.
//
// Purpose: catch silent decoder drift at PR time. Any change to a
// decoder's numerics, a design's sampling stream, or the registry's
// spec->decoder mapping shows up here as a support diff. All decoders
// are deterministic and pool-size independent (asserted elsewhere), so
// the goldens are stable across machines and thread counts.
//
// To regenerate after an *intentional* behavior change: run with
// --gtest_also_run_disabled_tests and copy the printed rows from
// DISABLED_PrintActualSupports over the table below.
#include <gtest/gtest.h>

#include <vector>

#include "binarygt/binary_decoders.hpp"
#include "core/instance.hpp"
#include "core/serialize.hpp"
#include "engine/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "thresholdgt/threshold_decoder.hpp"

namespace pooled {
namespace {

constexpr std::uint32_t kN = 80;
constexpr std::uint32_t kK = 4;

/// The three fixed-seed fixtures: the paper's quantitative channel plus
/// the two one-bit group-testing channels at their natural pool sizes.
enum class Fixture { Quantitative, Binary, Threshold };

/// The fixture's first `m` queries; m = 0 takes its full length (70
/// quantitative, 120 one-bit).
InstanceSpec fixture_spec(Fixture fixture, std::uint32_t m, ThreadPool& pool) {
  const Signal truth = Signal::random(kN, kK, 99);  // support {9, 10, 61, 70}
  DesignParams params;
  params.n = kN;
  switch (fixture) {
    case Fixture::Quantitative:
      params.seed = 7;
      return simulate_spec(DesignKind::RandomRegular, params, m ? m : 70, truth,
                           pool);
    case Fixture::Binary:
      params.seed = 11;
      params.gamma = optimal_gt_gamma(kN, kK);
      return simulate_spec(DesignKind::RandomRegular, params, m ? m : 120, truth,
                           pool, ChannelKind::Binary);
    case Fixture::Threshold:
      params.seed = 13;
      params.gamma = threshold_gt_gamma(kN, kK, 2);
      return simulate_spec(DesignKind::RandomRegular, params, m ? m : 120, truth,
                           pool, ChannelKind::Threshold, 2);
  }
  return {};
}

struct Golden {
  Fixture fixture;
  const char* spec;
  std::vector<std::uint32_t> support;
  std::uint32_t m = 0;  ///< queries decoded; 0 = the fixture's full length
};

// Generated from the fixtures above (truth support {9, 10, 61, 70}).
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
      {Fixture::Quantitative, "mn", {9, 10, 61, 70}},
      {Fixture::Quantitative, "mn:multi-edge", {9, 10, 39, 61}},
      {Fixture::Quantitative, "mn:raw", {9, 10, 39, 61}},
      {Fixture::Quantitative, "mn:normalized", {9, 10, 61, 70}},
      {Fixture::Quantitative, "peeling", {9, 10, 61, 70}},
      {Fixture::Quantitative, "fista", {9, 10, 61, 70}},
      {Fixture::Quantitative, "iht", {9, 10, 39, 43}},
      {Fixture::Quantitative, "omp", {9, 10, 61, 70}},
      {Fixture::Quantitative, "random:42", {30, 32, 55, 74}},
      {Fixture::Quantitative, "gt:threshold:2", {9, 10, 61, 70}},
      {Fixture::Binary, "gt:binary", {9, 10, 61, 70}},
      {Fixture::Binary, "gt:comp", {9, 10, 61, 70}},
      {Fixture::Threshold, "gt:threshold:2", {9, 10, 61, 70}},
      // m = 24 is too few queries for every GT decoder, so these rows pin
      // what each one gets wrong: DD under-reports, COMP over-reports.
      {Fixture::Binary, "gt:binary", {9, 61}, 24},
      {Fixture::Binary, "gt:comp",
       {9, 10, 11, 24, 40, 60, 61, 66, 70, 74, 77}, 24},
      {Fixture::Binary, "gt:threshold:1", {9, 37, 62, 76}, 24},
      {Fixture::Threshold, "gt:threshold:2", {10, 26, 31, 51}, 24},
      {Fixture::Quantitative, "gt:threshold:2", {9, 13, 51, 58}, 24},
      {Fixture::Quantitative, "gt:comp",
       {9, 10, 13, 17, 18, 22, 28, 34, 46, 47, 51, 58, 61, 66, 70, 73, 74}, 24},
  };
  return table;
}

std::vector<std::uint32_t> decode_support(const Golden& golden, ThreadPool& pool) {
  const InstanceSpec spec = fixture_spec(golden.fixture, golden.m, pool);
  const auto instance = spec.to_instance();
  const Signal estimate = make_decoder(golden.spec)->decode(*instance, kK, pool);
  return {estimate.support().begin(), estimate.support().end()};
}

TEST(GoldenDecoders, EveryRegistrySpecMatchesItsCheckedInSupport) {
  ThreadPool pool(2);
  for (const Golden& golden : goldens()) {
    EXPECT_EQ(decode_support(golden, pool), golden.support)
        << "decoder drift for spec '" << golden.spec << "'";
  }
}

TEST(GoldenDecoders, GoldensAreIndependentOfPoolWidth) {
  // The table is generated with one pool; re-check a representative
  // subset at other widths so golden failures always mean decoder drift,
  // never scheduling nondeterminism.
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (const Golden& golden : goldens()) {
      if (std::string(golden.spec) != "mn" &&
          std::string(golden.spec) != "fista" &&
          std::string(golden.spec) != "gt:binary") {
        continue;
      }
      EXPECT_EQ(decode_support(golden, pool), golden.support)
          << golden.spec << " at pool width " << threads;
    }
  }
}

TEST(GoldenDecoders, DISABLED_PrintActualSupports) {
  ThreadPool pool(2);
  for (const Golden& golden : goldens()) {
    const auto support = decode_support(golden, pool);
    std::string row = "{\"" + std::string(golden.spec) + "\", {";
    for (std::size_t i = 0; i < support.size(); ++i) {
      row += (i ? ", " : "") + std::to_string(support[i]);
    }
    row += "}";
    if (golden.m != 0) row += ", " + std::to_string(golden.m);
    std::printf("%s}\n", row.c_str());
  }
}

}  // namespace
}  // namespace pooled

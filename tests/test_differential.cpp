// Differential / randomized cross-checks across the whole pipeline.
//
// Strategy: draw many random configurations and assert that independent
// implementations of the same quantity agree exactly -- the streamed pass
// vs a naive per-query loop, incremental vs batch decoding, CSR-based Ψ
// vs the instance accumulators, serialization round trips under decoding.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/incremental.hpp"
#include "core/instance.hpp"
#include "core/mn.hpp"
#include "core/serialize.hpp"
#include "design/design.hpp"
#include "linalg/csr_matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "reference.hpp"

namespace pooled {
namespace {

struct RandomConfig {
  std::uint32_t n;
  std::uint32_t k;
  std::uint32_t m;
  DesignKind kind;
  std::uint64_t gamma;
  double p;
  std::uint64_t seed;
};

RandomConfig draw_config(std::uint64_t index) {
  Xoshiro256pp gen(0xD1FF + index);
  RandomConfig config;
  config.n = 50 + static_cast<std::uint32_t>(uniform_index(gen, 450));
  config.k = 1 + static_cast<std::uint32_t>(uniform_index(gen, config.n / 8 + 1));
  config.m = 1 + static_cast<std::uint32_t>(uniform_index(gen, 150));
  switch (uniform_index(gen, 3)) {
    case 0:
      config.kind = DesignKind::RandomRegular;
      break;
    case 1:
      config.kind = DesignKind::Distinct;
      break;
    default:
      config.kind = DesignKind::Bernoulli;
      break;
  }
  // gamma in [1, n] or 0 (= default n/2); p in (0.05, 0.95).
  config.gamma = uniform_index(gen, 2) == 0
                     ? 0
                     : 1 + uniform_index(gen, config.n);
  config.p = 0.05 + 0.9 * uniform_real(gen);
  config.seed = gen();
  return config;
}

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSweep, BackendsAgreeOnEverythingObservable) {
  ThreadPool pool(3);
  const RandomConfig config = draw_config(GetParam());
  DesignParams params;
  params.n = config.n;
  params.seed = config.seed;
  params.gamma = config.gamma;
  params.p = config.p;
  std::shared_ptr<const PoolingDesign> design = make_design(config.kind, params);
  const Signal truth = Signal::random(config.n, config.k, config.seed ^ 0xFACE);

  const auto streamed = make_streamed_instance(design, config.m, truth, pool);
  const EntryStats reference = naive_entry_stats(*streamed);

  // Entry statistics equal the naive loop's bit-for-bit, in both count
  // modes.
  const EntryStats s1 = streamed->entry_stats(pool);
  const EntryStats e1 = streamed->entry_stats(pool, CountMode::EveryDraw);
  ASSERT_EQ(s1.psi, reference.psi);
  ASSERT_EQ(e1.psi_multi, reference.psi_multi);
  ASSERT_EQ(e1.delta, reference.delta);
  ASSERT_EQ(s1.delta_star, reference.delta_star);

  // CSR reconstruction of Ψ agrees with the accumulators.
  const CsrMatrix at = CsrMatrix::from_instance(*streamed).transpose();
  for (std::uint32_t i = 0; i < config.n; ++i) {
    std::uint64_t psi = 0, delta = 0;
    const auto queries = at.row_indices(i);
    const auto times = at.row_values(i);
    for (std::size_t s = 0; s < queries.size(); ++s) {
      psi += streamed->results()[queries[s]];
      delta += static_cast<std::uint64_t>(times[s]);
    }
    ASSERT_EQ(psi, s1.psi[i]) << "entry " << i;
    ASSERT_EQ(delta, e1.delta[i]) << "entry " << i;
  }

  // MN decodes the instance as it decodes the naive statistics.
  const MnDecoder decoder;
  ASSERT_EQ(decoder.decode(*streamed, config.k, pool),
            decoder.estimate_from_stats(reference, config.k, pool));

  // Truth is consistent; decoding output has exactly weight k.
  ASSERT_TRUE(streamed->is_consistent(truth));
  ASSERT_EQ(decoder.decode(*streamed, config.k, pool).k(), config.k);
}

TEST_P(DifferentialSweep, IncrementalEqualsBatchAtFinalPrefix) {
  ThreadPool pool(1);
  const RandomConfig config = draw_config(GetParam() ^ 0xABCD);
  // Incremental MN is defined for unbounded (streamable) designs.
  DesignParams params;
  params.n = config.n;
  params.seed = config.seed;
  params.gamma = config.gamma;
  params.p = config.p;
  std::shared_ptr<const PoolingDesign> design = make_design(config.kind, params);
  const Signal truth = Signal::random(config.n, config.k, config.seed ^ 0xBEEF);
  IncrementalMn incremental(design);
  for (std::uint32_t q = 0; q < config.m; ++q) incremental.add_simulated_query(truth);
  const auto instance = make_streamed_instance(design, config.m, truth, pool);
  const Signal estimate = incremental.decode(config.k, pool);
  ASSERT_EQ(estimate, MnDecoder().decode(*instance, config.k, pool));
  ASSERT_EQ(incremental.matches_truth(truth, pool), estimate == truth);
}

TEST_P(DifferentialSweep, SerializationPreservesDecoding) {
  ThreadPool pool(1);
  const RandomConfig config = draw_config(GetParam() ^ 0x5E1A);
  DesignParams params;
  params.n = config.n;
  params.seed = config.seed;
  params.gamma = config.gamma;
  params.p = config.p;
  auto design = make_design(config.kind, params);
  const Signal truth = Signal::random(config.n, config.k, config.seed ^ 0xCAFE);
  const auto y = simulate_queries(*design, config.m, truth, pool);
  std::stringstream buffer;
  save_instance(buffer, make_spec(config.kind, params, y));
  const auto reloaded = load_instance(buffer).to_instance();
  std::shared_ptr<const PoolingDesign> shared_design = std::move(design);
  const auto original =
      std::make_unique<StreamedInstance>(shared_design, config.m, y);
  const MnDecoder decoder;
  ASSERT_EQ(decoder.decode(*original, config.k, pool),
            decoder.decode(*reloaded, config.k, pool));
}

INSTANTIATE_TEST_SUITE_P(TwentyRandomConfigs, DifferentialSweep,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace pooled

#include "sim/montecarlo.hpp"

#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "engine/batch_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "support/assert.hpp"

namespace pooled {

TrialSeeds trial_seeds(std::uint64_t seed_base, std::uint64_t trial_index) {
  // Two decorrelated streams per trial via SplitMix mixing.
  const std::uint64_t root = splitmix64_mix(seed_base ^ (trial_index * 0x9E3779B97F4A7C15ull));
  return TrialSeeds{splitmix64_mix(root ^ 0xDE516Eull), splitmix64_mix(root ^ 0x516A1ull)};
}

namespace {

/// The noise model a trial actually applies: the config's model with a
/// per-trial seed. The 0x4015E domain-separation constant keeps the
/// Philox key disjoint from the design's query streams (which are keyed
/// on the raw design seed), even for the default model seed of 0.
NoiseModel trial_noise_model(const TrialConfig& config, const TrialSeeds& seeds) {
  NoiseModel noise = config.noise;
  noise.seed ^= seeds.design_seed ^ 0x4015Eull;
  return noise;
}

}  // namespace

std::unique_ptr<StreamedInstance> build_trial_instance(const TrialConfig& config,
                                                       std::uint64_t trial_index,
                                                       Signal& truth_out,
                                                       ThreadPool& pool) {
  const TrialSeeds seeds = trial_seeds(config.seed_base, trial_index);
  DesignParams params;
  params.n = config.n;
  params.seed = seeds.design_seed;
  params.gamma = config.gamma;
  params.p = config.p;
  std::shared_ptr<const PoolingDesign> design = make_design(config.design, params);
  truth_out = Signal::random(config.n, config.k, seeds.signal_seed);
  auto y = simulate_queries(*design, config.m, truth_out, pool);
  if (config.noise.enabled()) {
    apply_noise(y, trial_noise_model(config, seeds));
  }
  return std::make_unique<StreamedInstance>(std::move(design), config.m,
                                            std::move(y));
}

TrialResult run_trial(const TrialConfig& config, const Decoder& decoder,
                      std::uint64_t trial_index, ThreadPool& pool) {
  POOLED_REQUIRE(config.k <= config.n, "trial config: k exceeds n");
  Signal truth(1);
  const auto instance = build_trial_instance(config, trial_index, truth, pool);
  DecodeContext context(config.k, pool);
  // Record the per-trial model the builder actually applied.
  if (config.noise.enabled()) {
    context.noise =
        trial_noise_model(config, trial_seeds(config.seed_base, trial_index));
  }
  const DecodeOutcome outcome = decoder.decode(*instance, context);
  return TrialResult{exact_recovery(outcome.estimate, truth),
                     overlap_fraction(outcome.estimate, truth)};
}

AggregateResult run_trials(const TrialConfig& config, const Decoder& decoder,
                           std::uint32_t trials, ThreadPool& pool) {
  POOLED_REQUIRE(config.k <= config.n, "trial config: k exceeds n");
  // Trials are decode jobs: the engine schedules them over the pool and
  // reports in submission order, so the overlap aggregation is
  // order-deterministic (independent of thread count and window).
  std::vector<DecodeJob> jobs(trials);
  for (std::uint32_t t = 0; t < trials; ++t) {
    DecodeJob& job = jobs[t];
    job.k = config.k;
    job.decoder_override = &decoder;
    job.check_consistency = false;  // trials score against the known truth
    job.build = [&config, t](ThreadPool& worker_pool) {
      Signal truth(1);
      InstanceBundle bundle;
      bundle.instance = build_trial_instance(config, t, truth, worker_pool);
      bundle.truth_support.emplace(truth.support().begin(),
                                   truth.support().end());
      return bundle;
    };
  }
  EngineOptions options;
  options.capture_errors = false;  // a broken config should fail loudly
  const auto reports = BatchEngine(pool, options).run(jobs);

  AggregateResult aggregate;
  aggregate.trials = trials;
  for (const DecodeReport& report : reports) {
    if (report.exact) ++aggregate.successes;
    aggregate.overlap.add(report.overlap);
  }
  return aggregate;
}

}  // namespace pooled

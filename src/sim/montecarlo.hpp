// Monte-Carlo trial runner for decoder evaluation.
//
// Trials run in parallel across the pool; each trial draws its own
// (design, signal) pair from seeds derived deterministically from
// (seed_base, trial index), so results are independent of thread count.
#pragma once

#include <cstdint>
#include <memory>

#include "core/decoder.hpp"
#include "design/design.hpp"
#include "stats/intervals.hpp"
#include "stats/summary.hpp"

namespace pooled {

struct TrialConfig {
  std::uint32_t n = 1000;
  std::uint32_t k = 8;
  std::uint32_t m = 100;
  DesignKind design = DesignKind::RandomRegular;
  std::uint64_t gamma = 0;      ///< 0 = paper's n/2 (RandomRegular/Distinct)
  double p = 0.5;               ///< Bernoulli inclusion probability
  std::uint64_t seed_base = 1;
  /// First-class channel noise applied to each trial's results (the
  /// model's seed is decorrelated per trial via the trial's design seed).
  NoiseModel noise;
};

struct TrialResult {
  bool exact = false;
  double overlap = 0.0;
};

struct AggregateResult {
  std::uint32_t trials = 0;
  std::uint32_t successes = 0;
  RunningStats overlap;
  [[nodiscard]] double success_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) / static_cast<double>(trials);
  }
  [[nodiscard]] Interval success_ci() const {
    return wilson_interval(successes, trials == 0 ? 1 : trials);
  }
};

/// Design + signal seeds of one trial (exposed for reproducibility tests).
struct TrialSeeds {
  std::uint64_t design_seed;
  std::uint64_t signal_seed;
};
TrialSeeds trial_seeds(std::uint64_t seed_base, std::uint64_t trial_index);

/// Runs one teacher-student trial.
TrialResult run_trial(const TrialConfig& config, const Decoder& decoder,
                      std::uint64_t trial_index, ThreadPool& pool);

/// Runs `trials` independent trials in parallel and aggregates.
AggregateResult run_trials(const TrialConfig& config, const Decoder& decoder,
                           std::uint32_t trials, ThreadPool& pool);

/// Builds the instance of one trial (shared by benches that need the raw
/// observables, e.g. the exhaustive Z_k counter).
std::unique_ptr<StreamedInstance> build_trial_instance(const TrialConfig& config,
                                                       std::uint64_t trial_index,
                                                       Signal& truth_out,
                                                       ThreadPool& pool);

}  // namespace pooled

#include "sim/required_queries.hpp"

#include <algorithm>
#include <cmath>

#include "core/incremental.hpp"
#include "core/thresholds.hpp"
#include "design/random_regular.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "support/assert.hpp"
#include "support/thread_annotations.hpp"

namespace pooled {

std::uint32_t required_queries_one_run(const RequiredQueriesConfig& config,
                                       std::uint64_t trial_index) {
  POOLED_REQUIRE(config.k >= 1 && config.k <= config.n, "invalid (n, k)");
  const TrialSeeds seeds = trial_seeds(config.seed_base, trial_index);
  auto design = std::make_shared<RandomRegularDesign>(config.n, seeds.design_seed);
  const Signal truth = Signal::random(config.n, config.k, seeds.signal_seed);
  std::uint32_t cap = config.m_cap;
  if (cap == 0) {
    const double guard = 50.0 * thresholds::m_mn_finite(config.n, std::max<std::uint32_t>(config.k, 2));
    cap = static_cast<std::uint32_t>(std::min<double>(guard, 1e9));
  }
  IncrementalMn mn(std::move(design));
  ThreadPool serial(1);  // one run is serial; trials spread over the pool
  while (mn.m() < cap) {
    mn.add_simulated_query(truth);
    if (mn.matches_truth(truth, serial)) return mn.m();
  }
  return cap;
}

RunningStats required_queries(const RequiredQueriesConfig& config,
                              std::uint32_t trials, ThreadPool& pool) {
  RunningStats stats;
  AnnotatedMutex mu;
  pool.run_tasks(trials, [&](std::size_t t) {
    const std::uint32_t required = required_queries_one_run(config, t);
    const LockGuard lock(mu);
    stats.add(static_cast<double>(required));
  });
  return stats;
}

}  // namespace pooled

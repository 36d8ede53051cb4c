#include "adaptive/batched.hpp"

#include "core/incremental.hpp"
#include "core/metrics.hpp"
#include "support/assert.hpp"

namespace pooled {

BatchedOutcome run_batched(std::shared_ptr<const PoolingDesign> design,
                           const Signal& truth, const BatchedConfig& config,
                           ThreadPool& pool) {
  POOLED_REQUIRE(config.batch_size > 0, "batch size must be positive");
  IncrementalMn mn(std::move(design));
  BatchedOutcome outcome;
  Signal previous_estimate(truth.n());
  for (std::uint32_t round = 0; round < config.max_rounds; ++round) {
    for (std::uint32_t q = 0; q < config.batch_size; ++q) mn.add_simulated_query(truth);
    ++outcome.rounds;
    outcome.total_queries = mn.m();
    if (mn.m() < config.min_queries) continue;
    // Observable stopping rule: does the current estimate reproduce every
    // query result so far? (Wrong-but-consistent estimates are possible
    // below the information-theoretic threshold; `success` records the
    // ground-truth comparison separately.)
    const Signal estimate = mn.decode(truth.k(), pool);
    const bool stable = estimate == previous_estimate;
    previous_estimate = estimate;
    if (!stable) continue;
    if (mn.is_consistent(estimate)) {
      outcome.stopped = true;
      outcome.success = exact_recovery(estimate, truth);
      return outcome;
    }
  }
  outcome.success = exact_recovery(mn.decode(truth.k(), pool), truth);
  return outcome;
}

}  // namespace pooled

// Partially-parallel pooling: the paper's closing open problem.
//
// A lab with L processing units conducts rounds of L simultaneous
// queries. After each round the decoder re-estimates and stops as soon as
// its estimate *explains every observed result* (an observable stopping
// rule -- the truth is never consulted). The trade-off of interest:
// total queries consumed vs. number of rounds (latency), as a function
// of L. L = infinity recovers the paper's fully-parallel design; L = 1 is
// fully sequential.
#pragma once

#include <cstdint>
#include <memory>

#include "core/signal.hpp"
#include "design/design.hpp"

namespace pooled {

class ThreadPool;

struct BatchedConfig {
  std::uint32_t batch_size = 16;   ///< L: queries per parallel round
  std::uint32_t max_rounds = 1024; ///< hard stop
  std::uint32_t min_queries = 1;   ///< don't estimate or test below this
};

struct BatchedOutcome {
  std::uint32_t rounds = 0;
  std::uint32_t total_queries = 0;
  bool stopped = false;  ///< stopping rule fired before max_rounds
  bool success = false;  ///< final estimate equals the truth
};

/// Runs the round-based scheme with the MN decoder: each round's
/// simulated queries fold into one IncrementalMn, and the stopping rule
/// is the served adapter's (engine/adaptive_adapter.cpp), gate included
/// -- the accumulator's O(k) fingerprint check runs only once the
/// estimate survives a round unchanged.
BatchedOutcome run_batched(std::shared_ptr<const PoolingDesign> design,
                           const Signal& truth, const BatchedConfig& config,
                           ThreadPool& pool);

}  // namespace pooled

// Fig. 2 protocol: per simulation run, the minimal m after which the MN
// algorithm reconstructs sigma exactly.
#pragma once

#include <cstdint>

#include "stats/summary.hpp"

namespace pooled {

class ThreadPool;

struct RequiredQueriesConfig {
  std::uint32_t n = 1000;
  std::uint32_t k = 8;
  std::uint64_t seed_base = 1;
  /// Abort guard: give up past this many queries (0 = 50x the finite-size
  /// MN threshold).
  std::uint32_t m_cap = 0;
};

/// One run: queries are added one at a time (incremental MN) and the
/// first m with exact reconstruction is returned. A run that never
/// reconstructs returns the cap it stopped at (m_cap, or the 50x guard
/// when m_cap is 0), matching how the paper's plot saturates.
std::uint32_t required_queries_one_run(const RequiredQueriesConfig& config,
                                       std::uint64_t trial_index);

/// Aggregates `trials` independent runs in parallel.
RunningStats required_queries(const RequiredQueriesConfig& config,
                              std::uint32_t trials, ThreadPool& pool);

}  // namespace pooled

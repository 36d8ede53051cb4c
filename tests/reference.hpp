// Test-only references: a pooling design with explicit rows, the naive
// per-query entry-statistics loop the streamed pass is checked against,
// and the concentration event R (Eq. 3) of the degrees.
#pragma once

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/thresholds.hpp"
#include "design/design.hpp"

namespace pooled {

/// A design whose queries are given row by row (draws, duplicates
/// included); hand-built graphs such as the paper's Fig. 1.
class ExplicitDesign final : public PoolingDesign {
 public:
  ExplicitDesign(std::uint32_t n, std::vector<std::vector<std::uint32_t>> rows)
      : n_(n), rows_(std::move(rows)) {}

  [[nodiscard]] std::uint32_t num_entries() const override { return n_; }
  void query_members(std::uint32_t query,
                     std::vector<std::uint32_t>& out) const override {
    out = rows_.at(query);
  }
  [[nodiscard]] double expected_pool_size() const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "explicit"; }

 private:
  std::uint32_t n_;
  std::vector<std::vector<std::uint32_t>> rows_;
};

/// All four entry statistics by the definitions, one query at a time:
/// every draw adds y_q to Ψ_multi and 1 to Δ; the first draw of an entry
/// in its query adds y_q to Ψ and 1 to Δ*.
inline EntryStats naive_entry_stats(const StreamedInstance& instance) {
  const std::uint32_t n = instance.n();
  EntryStats stats;
  stats.psi.assign(n, 0);
  stats.psi_multi.assign(n, 0);
  stats.delta.assign(n, 0);
  stats.delta_star.assign(n, 0);
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < instance.m(); ++q) {
    const std::uint64_t y = instance.results()[q];
    instance.query_members(q, members);
    std::set<std::uint32_t> seen;
    for (const std::uint32_t entry : members) {
      stats.psi_multi[entry] += y;
      ++stats.delta[entry];
      if (seen.insert(entry).second) {
        stats.psi[entry] += y;
        ++stats.delta_star[entry];
      }
    }
  }
  return stats;
}

/// Entries violating event R with constant `c` in the O(.):
/// |Δ_i - m/2| <= c sqrt(m ln n) and |Δ*_i - γ m| <= c sqrt(m ln n), with
/// γ = 1 - e^{-1/2} (thresholds::gamma). Δ comes from an EveryDraw pass,
/// Δ* from a Distinct one.
inline std::size_t count_concentration_violations(
    const std::vector<std::uint64_t>& delta,
    const std::vector<std::uint32_t>& delta_star, std::uint32_t num_queries,
    double c) {
  const double n = static_cast<double>(delta.size());
  const double m = static_cast<double>(num_queries);
  const double slack = c * std::sqrt(m * std::log(n));
  std::size_t violations = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const double d = static_cast<double>(delta[i]);
    const double s = static_cast<double>(delta_star[i]);
    if (std::abs(d - m / 2.0) > slack ||
        std::abs(s - thresholds::gamma() * m) > slack) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace pooled

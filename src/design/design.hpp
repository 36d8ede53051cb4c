// Pooling designs: how each query selects its pool of entries.
//
// A design is a *deterministic* function of (seed, query index): the same
// design object always regenerates the same pools. This is what lets an
// instance (core/instance.hpp: design, m and the results y) re-derive any
// query without storing the graph.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pooled {

class PoolingDesign {
 public:
  virtual ~PoolingDesign() = default;

  /// Number of entry nodes (signal length n).
  [[nodiscard]] virtual std::uint32_t num_entries() const = 0;

  /// Writes the membership draws of query `query` into `out` (resized).
  /// Duplicates are allowed and meaningful: a duplicated entry contributes
  /// its value multiple times to the query result (multi-edge semantics).
  virtual void query_members(std::uint32_t query,
                             std::vector<std::uint32_t>& out) const = 0;

  /// Expected pool size (used for sizing and theory formulas).
  [[nodiscard]] virtual double expected_pool_size() const = 0;

  /// Human-readable identification for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Built-in design kinds (see the matching classes for semantics).
enum class DesignKind {
  RandomRegular,   ///< paper's design: Γ draws with replacement per query
  Distinct,        ///< Γ distinct entries per query (ablation)
  Bernoulli,       ///< each entry joins each query independently w.p. p
};

struct DesignParams {
  std::uint32_t n = 0;       ///< signal length
  std::uint64_t seed = 1;    ///< design randomness
  std::uint64_t gamma = 0;   ///< pool size; 0 means the paper's n/2
  double p = 0.5;            ///< Bernoulli inclusion probability
};

/// Factory for the streamable designs.
std::unique_ptr<PoolingDesign> make_design(DesignKind kind, const DesignParams& params);

}  // namespace pooled

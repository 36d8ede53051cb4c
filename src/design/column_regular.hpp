// Column-regular design: every entry participates in exactly d queries
// (the biregular configuration-model design used by sparse-graph decoders
// such as Karimi et al.'s). Materialized: the whole edge permutation is
// drawn up front, so this design is bounded by its m.
#pragma once

#include <vector>

#include "design/design.hpp"

namespace pooled {

class ColumnRegularDesign final : public PoolingDesign {
 public:
  /// n entries, m queries, every entry in exactly `entry_degree` queries.
  /// Edges are dealt to queries as evenly as possible (configuration model).
  ColumnRegularDesign(std::uint32_t n, std::uint32_t m, std::uint32_t entry_degree,
                      std::uint64_t seed);

  [[nodiscard]] std::uint32_t num_entries() const override { return n_; }
  void query_members(std::uint32_t query,
                     std::vector<std::uint32_t>& out) const override;
  [[nodiscard]] double expected_pool_size() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint32_t num_queries() const { return m_; }
  [[nodiscard]] std::uint32_t entry_degree() const { return degree_; }

 private:
  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t degree_;
  std::vector<std::size_t> offsets_;        // per-query slices into members_
  std::vector<std::uint32_t> members_;
};

}  // namespace pooled

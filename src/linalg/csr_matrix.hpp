// Compressed sparse row matrix over doubles.
//
// The pooled-data decoders view the design graph as its biadjacency
// matrix A in N_0^{m x n} (A_qj = multiplicity of entry j in query q);
// the MN statistics are the matrix-vector products Psi = A* y, Delta* =
// A* 1 with A* the 0/1 (distinct) pattern -- see the paper's
// "Parallelized Reconstruction" discussion. The baselines that need
// matrix access (peeling, OMP, FISTA, IHT) build A once per decode with
// from_instance and walk its entry rows through transpose().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pooled {

class StreamedInstance;
class ThreadPool;

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::uint32_t rows, std::uint32_t cols,
            std::vector<std::size_t> row_offsets, std::vector<std::uint32_t> col_idx,
            std::vector<double> values);

  /// Biadjacency matrix A of the instance's design graph (regenerates
  /// every query): row q holds query q's distinct entries in increasing
  /// order, each valued by its number of draws (multiplicity). `binary`
  /// replaces multiplicities by 1 (the distinct pattern M). Rejects a
  /// draw outside [0, n).
  static CsrMatrix from_instance(const StreamedInstance& instance,
                                 bool binary = false);

  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nonzeros() const { return col_idx_.size(); }

  [[nodiscard]] std::span<const std::uint32_t> row_indices(std::uint32_t row) const;
  [[nodiscard]] std::span<const double> row_values(std::uint32_t row) const;

  /// out = this * x (parallel over rows).
  void multiply(ThreadPool& pool, std::span<const double> x,
                std::vector<double>& out) const;

  /// Euclidean norm of one column (O(nnz) scan; cached by callers that care).
  [[nodiscard]] std::vector<double> column_norms() const;

  [[nodiscard]] CsrMatrix transpose() const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace pooled

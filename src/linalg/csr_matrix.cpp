#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "core/instance.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

CsrMatrix::CsrMatrix(std::uint32_t rows, std::uint32_t cols,
                     std::vector<std::size_t> row_offsets,
                     std::vector<std::uint32_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  POOLED_REQUIRE(row_offsets_.size() == rows_ + 1, "CSR offsets must have rows+1 slots");
  POOLED_REQUIRE(col_idx_.size() == values_.size(), "CSR index/value size mismatch");
  POOLED_REQUIRE(row_offsets_.back() == col_idx_.size(), "CSR offsets inconsistent");
}

CsrMatrix CsrMatrix::from_instance(const StreamedInstance& instance, bool binary) {
  const std::uint32_t n = instance.n();
  const std::uint32_t m = instance.m();
  std::vector<std::size_t> offsets(m + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  std::vector<std::uint32_t> members;
  for (std::uint32_t q = 0; q < m; ++q) {
    instance.query_members(q, members);
    std::sort(members.begin(), members.end());
    // One slot per run of equal draws.
    for (std::size_t i = 0; i < members.size();) {
      POOLED_REQUIRE(members[i] < n, "query references unknown entry");
      std::size_t j = i;
      while (j < members.size() && members[j] == members[i]) ++j;
      col_idx.push_back(members[i]);
      values.push_back(binary ? 1.0 : static_cast<double>(j - i));
      i = j;
    }
    offsets[q + 1] = col_idx.size();
  }
  return CsrMatrix(m, n, std::move(offsets), std::move(col_idx), std::move(values));
}

std::span<const std::uint32_t> CsrMatrix::row_indices(std::uint32_t row) const {
  POOLED_REQUIRE(row < rows_, "CSR row out of range");
  return {col_idx_.data() + row_offsets_[row],
          row_offsets_[row + 1] - row_offsets_[row]};
}

std::span<const double> CsrMatrix::row_values(std::uint32_t row) const {
  POOLED_REQUIRE(row < rows_, "CSR row out of range");
  return {values_.data() + row_offsets_[row],
          row_offsets_[row + 1] - row_offsets_[row]};
}

void CsrMatrix::multiply(ThreadPool& pool, std::span<const double> x,
                         std::vector<double>& out) const {
  POOLED_REQUIRE(x.size() == cols_, "SpMV dimension mismatch");
  out.assign(rows_, 0.0);
  parallel_for(pool, 0, rows_, [&](std::size_t r) {
    double acc = 0.0;
    for (std::size_t slot = row_offsets_[r]; slot < row_offsets_[r + 1]; ++slot) {
      acc += values_[slot] * x[col_idx_[slot]];
    }
    out[r] = acc;
  });
}

std::vector<double> CsrMatrix::column_norms() const {
  std::vector<double> sums(cols_, 0.0);
  for (std::size_t slot = 0; slot < values_.size(); ++slot) {
    sums[col_idx_[slot]] += values_[slot] * values_[slot];
  }
  for (double& s : sums) s = std::sqrt(s);
  return sums;
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<std::size_t> offsets(cols_ + 1, 0);
  for (std::uint32_t c : col_idx_) ++offsets[c + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::uint32_t> t_idx(col_idx_.size());
  std::vector<double> t_val(values_.size());
  for (std::uint32_t r = 0; r < rows_; ++r) {
    for (std::size_t slot = row_offsets_[r]; slot < row_offsets_[r + 1]; ++slot) {
      const std::uint32_t c = col_idx_[slot];
      t_idx[cursor[c]] = r;
      t_val[cursor[c]] = values_[slot];
      ++cursor[c];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(offsets), std::move(t_idx),
                   std::move(t_val));
}

}  // namespace pooled

// The Maximum Neighborhood (MN) algorithm -- Algorithm 1 of the paper.
//
// Score of entry i:  Ψ_i - Δ*_i * k/2.
// One-entries inflate Ψ_i by their own degree Δ_i ≈ m/2, so sorting by the
// centralized score and taking the k largest recovers sigma once
// m > (1+ε) m_MN (Theorem 1).
//
// The decode is organized exactly as the paper's "Parallelized
// Reconstruction" remark: the per-entry sums are the matrix-vector
// products Ψ = M y and Δ* = M 1 over the distinct-pattern biadjacency
// matrix (fused into one pass here), followed by a sort/selection of the
// n scores.
#pragma once

#include <cstdint>
#include <vector>

#include "core/decoder.hpp"
#include "core/instance.hpp"

namespace pooled {

/// Score variants for the ablation bench. Paper uses CentralizedPsi.
enum class MnScore {
  CentralizedPsi,   ///< Ψ_i − Δ*_i k/2 (Algorithm 1, line 7)
  RawPsi,           ///< Ψ_i (no centering; suffers degree fluctuations)
  NormalizedPsi,    ///< Ψ_i / Δ*_i (ratio centering)
  MultiEdgePsi,     ///< multi-edge-weighted Ψ'_i − Δ_i k/2 (counts a query
                    ///<  once per multi-edge instead of once per query)
};

struct MnOptions {
  MnScore score = MnScore::CentralizedPsi;
  /// Use the parallel merge sort over all n scores (the paper's
  /// parallel-sort formulation) instead of the one-scan selection. Both
  /// return identical supports; selection is the faster default.
  bool full_sort = false;
};

struct MnResult {
  Signal estimate;
  std::vector<double> scores;  ///< per-entry scores (diagnostics, Fig.-style plots)
};

class MnDecoder final : public Decoder {
 public:
  explicit MnDecoder(MnOptions options = {});

  using Decoder::decode;
  [[nodiscard]] DecodeOutcome decode(const StreamedInstance& instance,
                                     const DecodeContext& context) const override;

  /// Decode keeping the score vector (used by diagnostics and examples).
  [[nodiscard]] MnResult decode_scored(const StreamedInstance& instance, std::uint32_t k,
                                       ThreadPool& pool) const;

  /// Scores from precomputed entry statistics, as a fresh vector.
  [[nodiscard]] std::vector<double> scores_from_stats(const EntryStats& stats,
                                                      std::uint32_t k,
                                                      ThreadPool& pool) const;

  /// The one score dispatch: one score per entry of the count_mode() pair
  /// into `out`.
  void scores_into(const EntryStats& stats, std::uint32_t k, ThreadPool& pool,
                   double* out) const;

  /// decode()'s tail over precomputed statistics: scores into the calling
  /// thread's arena, then the k best entries (honouring `full_sort`).
  /// IncrementalMn estimates through it.
  [[nodiscard]] Signal estimate_from_stats(const EntryStats& stats,
                                           std::uint32_t k,
                                           ThreadPool& pool) const;

  [[nodiscard]] const MnOptions& options() const { return options_; }

  /// What the accumulate must count for this decoder's score: the one
  /// MnScore -> CountMode mapping (only the multi-edge ablation reads Ψ_multi
  /// and Δ). decode, decode_scored and IncrementalMn request it.
  [[nodiscard]] CountMode count_mode() const;

  [[nodiscard]] std::string name() const override;

 private:
  MnOptions options_;
};

/// Selects the k highest-scoring entries; ties break toward lower index
/// (deterministic). Uses a parallel sort when `full_sort`.
std::vector<std::uint32_t> select_top_k(std::vector<double>& scores, std::uint32_t k,
                                        bool full_sort, ThreadPool& pool);

}  // namespace pooled

// Incremental MN decoding: append queries one at a time and re-rank.
//
// Fig. 2 of the paper reports, per simulation run, the *minimal* number of
// queries after which exact reconstruction holds. Entry statistics are
// additive in queries, so each new query folds in with O(Γ log Γ) work
// and the exact-recovery check is a single O(n) scan -- no prefix
// re-simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mn.hpp"
#include "core/signal.hpp"
#include "design/design.hpp"
#include "kernels/entry_record.hpp"

namespace pooled {

class IncrementalMn {
 public:
  IncrementalMn(std::shared_ptr<const PoolingDesign> design, Signal truth,
                MnScore score = MnScore::CentralizedPsi);

  /// Simulates query number m() against the truth and folds it into the
  /// statistics. Returns the query result.
  std::uint32_t add_query();

  [[nodiscard]] std::uint32_t m() const { return static_cast<std::uint32_t>(y_.size()); }

  /// True iff the current top-k selection equals the true support
  /// (identical semantics to MnDecoder + select_top_k, including the
  /// lower-index tie-break).
  [[nodiscard]] bool matches_truth() const;

  /// Fraction of one-entries currently ranked in the top k.
  [[nodiscard]] double overlap_fraction() const;

  /// Current estimate as a full signal (O(n log n)).
  [[nodiscard]] Signal decode() const;

  /// Packages the accumulated observations as a streamed instance.
  [[nodiscard]] std::unique_ptr<class StreamedInstance> to_instance() const;

  [[nodiscard]] const Signal& truth() const { return truth_; }

 private:
  /// All n scores via the hoisted kernel dispatch, into the calling
  /// thread's arena (valid until the next arena score use); the records
  /// are transposed into the arena's EntryStats first.
  [[nodiscard]] const double* scores_into_arena() const;

  std::shared_ptr<const PoolingDesign> design_;
  Signal truth_;
  MnScore score_;
  std::vector<EntryRecord> records_;  ///< one per entry, zeroed at start
  std::vector<std::uint32_t> y_;
  std::vector<std::uint32_t> scratch_;
};

}  // namespace pooled

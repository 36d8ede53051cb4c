// Incremental MN decoding: fold queries in one at a time and re-rank.
//
// Entry statistics are integer sums, additive in queries, so a query's
// Γ draws fold into the running per-entry records once and every later
// estimate reuses them: an estimate after m queries is bit-identical to
// MnDecoder over the m-query prefix, without regenerating the prefix.
// Each fold also adds the query's fingerprint weight r_q, so the records
// carry the Freivalds fingerprint of the folded prefix (QueryFingerprint
// in core/instance.hpp) and a candidate is checked against it in O(k).
// The accumulator holds observations and that fingerprint only; callers
// bring the results, either observed (the served `adaptive:mn` decoder
// folds each round's new queries) or simulated against a truth they own
// (the Fig. 2 loop and the round-based simulation study).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mn.hpp"
#include "core/signal.hpp"
#include "design/design.hpp"
#include "kernels/entry_record.hpp"

namespace pooled {

class ThreadPool;

class IncrementalMn {
 public:
  IncrementalMn(std::shared_ptr<const PoolingDesign> design, MnOptions options = {});

  /// Folds query number m() with its observed result `y`.
  void add_query(std::uint32_t y);

  /// Teacher step: observes query number m() against `truth` (the
  /// quantitative channel), folds it, and returns the result. The
  /// query's draws are regenerated once for both.
  std::uint32_t add_simulated_query(const Signal& truth);

  [[nodiscard]] std::uint32_t n() const { return design_->num_entries(); }
  [[nodiscard]] std::uint32_t m() const { return m_; }

  /// Current weight-k estimate through MnDecoder's scoring and top-k:
  /// O(n) to transpose the records, then the score and selection.
  [[nodiscard]] Signal decode(std::uint32_t k, ThreadPool& pool) const;

  /// True iff the current top-truth.k() selection equals the support of
  /// `truth` (identical semantics to decode(), including the lower-index
  /// tie-break), in one O(n) scan of the scores.
  [[nodiscard]] bool matches_truth(const Signal& truth, ThreadPool& pool) const;

  /// Fraction of truth's one-entries currently ranked in the top k.
  [[nodiscard]] double overlap_fraction(const Signal& truth, ThreadPool& pool) const;

  /// Whether the candidate explains the m() folded results, by the
  /// fingerprint of the folded prefix: O(k), with the one-sided error of
  /// StreamedInstance::is_consistent. Meaningful only when the results
  /// are the pooled sums themselves (the quantitative channel).
  [[nodiscard]] bool is_consistent(const Signal& candidate) const;

  /// That fingerprint, covering queries [0, m()), as an instance of the
  /// same design and results would record it (O(n) copy).
  [[nodiscard]] QueryFingerprint fingerprint() const;

 private:
  /// Folds the draws in scratch_ as query number m() with result `y`.
  void fold(std::uint32_t y);

  /// The records transposed into the calling thread's arena EntryStats
  /// (valid until that slot's next use).
  [[nodiscard]] const EntryStats& stats_into_arena() const;

  std::shared_ptr<const PoolingDesign> design_;
  MnDecoder decoder_;
  std::vector<EntryRecord> records_;  ///< one per entry, zeroed at start
  std::uint32_t m_ = 0;       ///< queries folded
  std::uint64_t target_ = 0;  ///< Σ r_q·y_q over the folded queries, wrapping
  std::vector<std::uint32_t> scratch_;
};

}  // namespace pooled

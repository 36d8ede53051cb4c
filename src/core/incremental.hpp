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
//
// A round of queries can also fold on the pool (fold_round): one batch
// folds the next rounds ahead, one task per round, the first straight
// into the records and each later one into its own delta block, and
// later rounds are then taken from those blocks in order. That pays one
// worker wake-up per batch instead of one per round. A round folded
// ahead but never taken leaves no trace. Taking a round adds its block
// to the records and writes the EntryStats pair the score reads in the
// same pass; after serial folds an estimate transposes the records into
// that pair first. The accumulator serves one thread at a time, const
// calls included.
//
// A standalone accumulator owns its records and statistics. One built on
// a DecodeArena borrows that arena's accumulator slots instead, so the
// served decoder's jobs on one thread reuse one grow-only set of buffers
// rather than allocating 44 bytes per entry each; at most one such
// accumulator may live on an arena at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mn.hpp"
#include "core/signal.hpp"
#include "design/design.hpp"
#include "kernels/entry_record.hpp"

namespace pooled {

class DecodeArena;
class ThreadPool;

class IncrementalMn {
 public:
  /// Owns its buffers when `arena` is null; otherwise borrows `arena`'s
  /// accumulator slots for its lifetime.
  explicit IncrementalMn(std::shared_ptr<const PoolingDesign> design,
                         MnOptions options = {}, DecodeArena* arena = nullptr);

  IncrementalMn(const IncrementalMn&) = delete;
  IncrementalMn& operator=(const IncrementalMn&) = delete;

  /// Folds query number m() with its observed result `y`.
  void add_query(std::uint32_t y);

  /// Teacher step: observes query number m() against `truth` (the
  /// quantitative channel), folds it, and returns the result. The
  /// query's draws are regenerated once for both.
  std::uint32_t add_simulated_query(const Signal& truth);

  /// Folds the next round, queries [m(), min(m() + batch, limit)) with
  /// results y[q], exactly as add_query would. The caller's later rounds
  /// are assumed to be the following runs of `batch` queries up to
  /// `limit` (<= y.size()): when a pool batch from this thread runs on
  /// more than one lane, one batch folds up to that many of them ahead
  /// (at most four), and later calls take the folded rounds instead of
  /// folding again. A round folded ahead is not in m(), the statistics
  /// or the fingerprint until a call takes it.
  void fold_round(const std::vector<std::uint32_t>& y, std::uint32_t batch,
                  std::uint32_t limit, ThreadPool& pool);

  [[nodiscard]] std::uint32_t n() const { return design_->num_entries(); }
  [[nodiscard]] std::uint32_t m() const { return m_; }

  /// Current weight-k estimate through MnDecoder's scoring and top-k
  /// (plus an O(n) transpose when queries folded serially since the
  /// last estimate).
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
  /// One round, queries [begin, end), folded ahead into one delta block.
  struct Piece {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t target = 0;  ///< Σ r_q·y_q over the piece
    bool serial = false;       ///< its sums could reach 2^32: fold it serially
  };

  /// Folds the draws in scratch_ as query number m() with result `y`.
  void fold(std::uint32_t y);

  /// The pair the score reads, transposed from the records if stale.
  [[nodiscard]] const EntryStats& stats() const;

  /// Plans the rounds of one pool batch from m() and folds them, the
  /// first into the records and the rest into delta blocks; false (and
  /// nothing folded) when the batch would not pay or the pool or arena
  /// budget allows one lane only.
  bool fold_ahead(const std::vector<std::uint32_t>& y, std::uint32_t batch,
                  std::uint32_t limit, ThreadPool& pool);

  /// Folds piece `index` >= 1 into its delta block (runs on a pool lane).
  void fold_piece(std::size_t index, const std::vector<std::uint32_t>& y);

  /// Takes the folded-ahead pieces that start at m() and end by `end`.
  void take_pieces(const std::vector<std::uint32_t>& y, std::uint32_t end);

  std::shared_ptr<const PoolingDesign> design_;
  MnDecoder decoder_;
  std::vector<EntryRecord> own_records_;  ///< standalone storage
  EntryStats own_stats_;                  ///< standalone storage
  EntryRecord* records_ = nullptr;  ///< n() records, zeroed at start
  EntryStats* stats_ = nullptr;     ///< the count_mode() pair of records_
  mutable bool stats_stale_ = true;  ///< records_ moved on since *stats_
  std::uint32_t m_ = 0;       ///< queries folded
  std::uint64_t target_ = 0;  ///< Σ r_q·y_q over the folded queries, wrapping
  std::vector<std::uint32_t> scratch_;
  // Folded ahead and not yet taken: pieces_[next_piece_..] in query
  // order, piece i >= 1 in block i - 1 of the arena's claim `claim_`
  // (piece 0 folds straight into records_).
  std::vector<Piece> pieces_;
  std::size_t next_piece_ = 0;
  DeltaRecord* blocks_ = nullptr;
  std::size_t block_stride_ = 0;  ///< DeltaRecords per block (n, rounded up)
  const DecodeArena* arena_ = nullptr;
  std::uint64_t claim_ = 0;
};

}  // namespace pooled

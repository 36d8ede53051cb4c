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
// Rounds can also fold ahead on the pool (fold_round). The first call
// opens a pool batch whose task r folds round r into block r % W of a
// ring of W delta blocks in the calling thread's arena; at most W rounds
// are folded and not yet taken, so a round becomes claimable only once
// the round W before it is taken (ThreadPool::extend). The calling
// thread takes rounds in order: it waits for a round a lane is folding,
// and claims and folds itself (straight into the records) a round no
// lane has claimed, so a decode progresses when every worker is busy
// elsewhere. Taking a folded round adds its block to the records and
// writes the EntryStats pair the score reads in the same pass; after
// serial folds an estimate transposes the records into that pair first.
// A lane never waits for ring space: with none, the round is not
// claimable yet and the worker moves on. finish_rounds() stops the
// ring: a fold in flight ends within one query, and no task touches a
// block once it returns. A round folded ahead but never taken is in
// neither m() nor the statistics; complete_fingerprint reuses its block.
// The accumulator serves one thread at a time, const calls included.
//
// A standalone accumulator owns its records and statistics. One built on
// a DecodeArena borrows that arena's accumulator slots instead, so the
// served decoder's jobs on one thread reuse one grow-only set of buffers
// rather than allocating 44 bytes per entry each; at most one such
// accumulator may live on an arena at a time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/mn.hpp"
#include "core/signal.hpp"
#include "design/design.hpp"
#include "kernels/entry_record.hpp"
#include "parallel/thread_pool.hpp"

namespace pooled {

class DecodeArena;

class IncrementalMn {
 public:
  /// Rounds folded ahead and not yet taken, at most: the width measured
  /// end to end (a 4-lane pool). A wider ring would fold more rounds
  /// that a converging decode then drops, and hold more blocks per thread.
  static constexpr unsigned kRoundsAhead = 4;

  /// Owns its buffers when `arena` is null; otherwise borrows `arena`'s
  /// accumulator slots for its lifetime.
  explicit IncrementalMn(std::shared_ptr<const PoolingDesign> design,
                         MnOptions options = {}, DecodeArena* arena = nullptr);
  /// Stops the rounds folding ahead if the owner did not (then a fold
  /// task's exception is dropped: another one is unwinding the owner).
  ~IncrementalMn();

  IncrementalMn(const IncrementalMn&) = delete;
  IncrementalMn& operator=(const IncrementalMn&) = delete;

  /// Folds query number m() with its observed result `y`.
  void add_query(std::uint32_t y);

  /// Teacher step: observes query number m() against `truth` (the
  /// quantitative channel), folds it, and returns the result. The
  /// query's draws are regenerated once for both.
  std::uint32_t add_simulated_query(const Signal& truth);

  /// Folds the next round, queries [m(), min(m() + batch, limit)) with
  /// results y[q], exactly as add_query would. The first call decides
  /// whether later rounds fold ahead: when a pool batch from this thread
  /// runs on more than one lane, the arena budget admits two blocks,
  /// more than one round is left and a round's draws reach n, it opens
  /// the ring over the runs of `batch` queries up to `limit`, and every
  /// later call must pass the same `y`, `batch` and `limit` (`y` must
  /// outlive finish_rounds). Otherwise every round folds serially.
  void fold_round(const std::vector<std::uint32_t>& y, std::uint32_t batch,
                  std::uint32_t limit, ThreadPool& pool);

  /// Stops folding rounds ahead: folds in flight end within one query,
  /// and no pool task touches the accumulator once it returns. Rethrows
  /// the first exception a fold task threw. A no-op without a ring.
  void finish_rounds();

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

  /// The fingerprint of all y.size() queries, equal entry for entry to
  /// the one a one-shot pass over `y` records: the folded prefix's, plus
  /// the weights of queries [m(), y.size()) folded on `pool`, each lane
  /// into the fp field of its own delta block. A round folded ahead and
  /// never taken adds its block instead of being regenerated. Stops the
  /// ring first; m() and the statistics do not change.
  [[nodiscard]] QueryFingerprint complete_fingerprint(const std::vector<std::uint32_t>& y,
                                                      ThreadPool& pool);

 private:
  /// One ring block's round, published by the lane that folds it.
  struct alignas(64) Slot {
    /// round + 1 once the block holds that round (kFailed if the fold threw).
    std::atomic<std::uint32_t> state{0};
    std::uint64_t target = 0;  ///< Σ r_q·y_q over the round
    bool overflow = false;     ///< its sums could reach 2^32: fold it serially
  };

  /// The rounds folding ahead, open from fold_round's first call (when it
  /// pays) to finish_rounds. Round r is queries [first + r·batch, ...)
  /// below `limit`, in block r % width.
  struct Ring {
    bool planned = false;         ///< fold_round decided whether to open it
    ThreadPool* pool = nullptr;   ///< the pool the batch runs on while open
    ThreadPool::Batch tasks;      ///< task r folds round r
    const std::vector<std::uint32_t>* y = nullptr;
    std::uint32_t first = 0;
    std::uint32_t batch = 0;
    std::uint32_t limit = 0;
    std::uint32_t rounds = 0;     ///< rounds below `limit`
    std::uint32_t taken = 0;      ///< rounds the calling thread has taken
    std::atomic<bool> stop{false};
    std::array<Slot, kRoundsAhead> slots;
    // The delta blocks, held in `arena` until the accumulator dies.
    DecodeArena* arena = nullptr;
    DeltaRecord* blocks = nullptr;
    unsigned width = 0;       ///< blocks held (W)
    std::size_t stride = 0;   ///< DeltaRecords per block (n, rounded up)
  };

  /// Folds the draws in scratch_ as query number m() with result `y`.
  void fold(std::uint32_t y);

  /// The pair the score reads, transposed from the records if stale.
  [[nodiscard]] const EntryStats& stats() const;

  /// Delta blocks a batch from this thread may use: the lanes it gets,
  /// at most kRoundsAhead, within the arena budget.
  [[nodiscard]] unsigned lane_blocks(const ThreadPool& pool) const;

  /// Holds `width` delta blocks of the calling thread's arena.
  void hold_blocks(unsigned width);

  /// Decides whether rounds fold ahead, and opens the ring if so.
  void plan_rounds(const std::vector<std::uint32_t>& y, std::uint32_t batch,
                   std::uint32_t limit, ThreadPool& pool);

  /// Folds ring round `round` into its block (runs on a pool lane).
  void fold_ahead(std::uint32_t round);

  /// Takes the ring's next round, folding it here if no lane claimed it.
  void take_round();

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
  Ring ring_;
  const std::function<void(std::size_t)> fold_task_;
};

}  // namespace pooled

#include "core/incremental.hpp"

#include <algorithm>

#include "kernels/decode_arena.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// A delta block's sums and counts stay below this (DeltaRecord).
constexpr std::uint64_t kDeltaLimit = std::uint64_t{1} << 32;

/// Rounds one pool batch folds at most: the width measured end to end
/// (a 4-lane pool). Wider batches would fold more rounds that a
/// converging decode then drops, and hold more blocks per thread.
constexpr unsigned kRoundsAhead = 4;

/// Adds one delta block into the records and writes the pair the score
/// reads in the same pass: the one O(n) pass a round folded ahead costs
/// the caller.
template <typename Count>
void add_block(const DeltaRecord* block, std::size_t n, EntryRecord* records,
               std::uint64_t* sums, Count* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    EntryRecord& record = records[i];
    record.sum += block[i].sum;
    record.count += block[i].count;
    record.fp += block[i].fp;
    sums[i] = record.sum;
    counts[i] = static_cast<Count>(record.count);
  }
}

}  // namespace

IncrementalMn::IncrementalMn(std::shared_ptr<const PoolingDesign> design,
                             MnOptions options, DecodeArena* arena)
    : design_(std::move(design)), decoder_(options) {
  POOLED_REQUIRE(design_ != nullptr, "incremental MN needs a design");
  const CountMode mode = decoder_.count_mode();
  if (arena == nullptr) {
    own_records_.resize(n());
    own_stats_.resize(n(), mode);
    records_ = own_records_.data();
    stats_ = &own_stats_;
  } else {
    // Borrowed slots hold the previous decode's sums: the records start
    // over, and the pair is rewritten before its first read.
    records_ = arena->accumulator_records(n());
    std::fill_n(records_, n(), EntryRecord{});
    stats_ = &arena->accumulator_stats(n(), mode);
  }
}

void IncrementalMn::fold(std::uint32_t y) {
  // Epoch marking (a record's mark = last query that drew the entry)
  // detects first occurrences without sorting the Γ draws; the records
  // start zeroed, so epochs are query + 1 as in a streamed pass. The
  // weight is the one a one-shot pass folds, so the fingerprints agree.
  const std::uint64_t weight = fingerprint_weight(m_);
  accumulate_query(decoder_.count_mode(), scratch_.data(), scratch_.size(),
                   m_ + 1, y, weight, RecordLayout{records_});
  target_ += weight * y;
  ++m_;
  stats_stale_ = true;
}

void IncrementalMn::add_query(std::uint32_t y) {
  design_->query_members(m(), scratch_);
  fold(y);
}

std::uint32_t IncrementalMn::add_simulated_query(const Signal& truth) {
  POOLED_REQUIRE(truth.n() == n(), "design/signal length mismatch");
  design_->query_members(m(), scratch_);
  std::uint32_t result = 0;
  for (std::uint32_t entry : scratch_) result += truth.value(entry);
  fold(result);
  return result;
}

void IncrementalMn::fold_round(const std::vector<std::uint32_t>& y,
                               std::uint32_t batch, std::uint32_t limit,
                               ThreadPool& pool) {
  POOLED_REQUIRE(batch >= 1 && m_ < limit && limit <= y.size(),
                 "a round needs queries left below the limit");
  const auto end = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::uint64_t{m_} + batch, limit));
  take_pieces(y, end);
  if (m_ < end && fold_ahead(y, batch, limit, pool)) take_pieces(y, end);
  while (m_ < end) add_query(y[m_]);
}

bool IncrementalMn::fold_ahead(const std::vector<std::uint32_t>& y,
                               std::uint32_t batch, std::uint32_t limit,
                               ThreadPool& pool) {
  pieces_.clear();
  next_piece_ = 0;
  // One round per lane the batch really gets, within the arena budget.
  const std::uint32_t count = n();
  const unsigned width = DecodeArena::delta_blocks(
      std::min(pool.batch_width(), kRoundsAhead), count);
  const std::uint64_t pieces =
      std::min<std::uint64_t>(width, (std::uint64_t{limit} - m_ + batch - 1) / batch);
  // A round pays only when its expected draws reach the n entries of the
  // block it zeroes and the caller adds; below that the serial fold wins
  // (L = 1 at n = 10^4: 45 ms serial, 58 ms folded ahead).
  if (pieces < 2 ||
      static_cast<double>(batch) * design_->expected_pool_size() < count) {
    return false;
  }
  for (std::uint64_t r = 0; r < pieces; ++r) {
    const std::uint64_t begin = m_ + r * batch;
    pieces_.push_back(Piece{
        static_cast<std::uint32_t>(begin),
        static_cast<std::uint32_t>(std::min<std::uint64_t>(begin + batch, limit))});
  }
  // Piece 0 is needed now, so it folds straight into the records; each
  // later piece gets a block. Blocks start on cache lines: 4 DeltaRecords
  // per 64 bytes.
  block_stride_ = (std::size_t{count} + 3) & ~std::size_t{3};
  DecodeArena& arena = DecodeArena::local();
  blocks_ = arena.deltas((pieces - 1) * block_stride_);
  arena_ = &arena;
  claim_ = arena.delta_claim();
  pool.run_tasks(pieces, [&](std::size_t index) {
    if (index == 0) {
      while (m_ < pieces_[0].end) add_query(y[m_]);
    } else {
      fold_piece(index, y);
    }
  });
  next_piece_ = 1;
  return true;
}

void IncrementalMn::fold_piece(std::size_t index,
                               const std::vector<std::uint32_t>& y) {
  Piece& piece = pieces_[index];
  const std::uint32_t count = n();
  const CountMode mode = decoder_.count_mode();
  DeltaRecord* block = blocks_ + (index - 1) * block_stride_;
  std::fill_n(block, count, DeltaRecord{});
  // The marks live in the executing lane's arena; epochs restart at 1
  // with every piece, so they start zeroed.
  DecodeArena& lane = DecodeArena::local();
  std::uint32_t* marks = nullptr;
  if (mode == CountMode::Distinct) {
    marks = lane.marks(count);
    std::fill_n(marks, count, 0u);
  }
  std::vector<std::uint32_t>& members = lane.members();
  std::uint64_t sum_bound = 0;
  std::uint64_t count_bound = 0;
  std::uint64_t target = 0;
  for (std::uint32_t q = piece.begin; q < piece.end; ++q) {
    design_->query_members(q, members);
    // Bounds on any one entry's sum and count over the piece: a piece
    // that could reach 2^32 is left to the serial fold.
    const std::uint64_t draws = mode == CountMode::Distinct ? 1 : members.size();
    count_bound += draws;
    if (count_bound >= kDeltaLimit) {
      piece.serial = true;
      return;
    }
    sum_bound += y[q] * draws;
    if (sum_bound >= kDeltaLimit) {
      piece.serial = true;
      return;
    }
    const std::uint64_t weight = fingerprint_weight(q);
    target += weight * y[q];
    accumulate_query(mode, members.data(), members.size(), q - piece.begin + 1,
                     y[q], weight, DeltaLayout{block, marks});
  }
  piece.target = target;
}

void IncrementalMn::take_pieces(const std::vector<std::uint32_t>& y,
                                std::uint32_t end) {
  // Blocks that another fold on this thread reclaimed, or that live in
  // another thread's arena, are gone.
  if (arena_ != &DecodeArena::local() || arena_->delta_claim() != claim_) {
    pieces_.clear();
    next_piece_ = 0;
  }
  while (next_piece_ < pieces_.size() && m_ < end) {
    const Piece& piece = pieces_[next_piece_];
    if (piece.begin != m_ || piece.end > end) break;
    if (piece.serial) {
      while (m_ < piece.end) add_query(y[m_]);
    } else {
      // The pass rewrites the whole pair, so serial folds before it are
      // in the pair too.
      const DeltaRecord* block = blocks_ + (next_piece_ - 1) * block_stride_;
      if (decoder_.count_mode() == CountMode::Distinct) {
        add_block(block, n(), records_, stats_->psi.data(), stats_->delta_star.data());
      } else {
        add_block(block, n(), records_, stats_->psi_multi.data(), stats_->delta.data());
      }
      target_ += piece.target;
      m_ = piece.end;
      stats_stale_ = false;
    }
    ++next_piece_;
  }
  // What is left must start here; anything else will never be asked for.
  if (next_piece_ == pieces_.size() || pieces_[next_piece_].begin != m_) {
    pieces_.clear();
    next_piece_ = 0;
  }
}

const EntryStats& IncrementalMn::stats() const {
  if (stats_stale_) {
    fold_records(records_, n(), decoder_.count_mode(), /*add=*/false, *stats_);
    stats_stale_ = false;
  }
  return *stats_;
}

Signal IncrementalMn::decode(std::uint32_t k, ThreadPool& pool) const {
  return decoder_.estimate_from_stats(stats(), k, pool);
}

bool IncrementalMn::matches_truth(const Signal& truth, ThreadPool& pool) const {
  POOLED_REQUIRE(truth.n() == n(), "design/signal length mismatch");
  // Exact recovery iff the worst-ranked one-entry still beats the
  // best-ranked zero-entry under the (score desc, index asc) total order.
  const std::uint32_t count = n();
  if (truth.k() == 0) return true;
  double* scores = DecodeArena::local().scores(count);
  decoder_.scores_into(stats(), truth.k(), pool, scores);
  bool have_one = false, have_zero = false;
  double worst_one = 0.0, best_zero = 0.0;
  std::uint32_t worst_one_idx = 0, best_zero_idx = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const double s = scores[i];
    if (truth.is_one(i)) {
      if (!have_one || s < worst_one || (s == worst_one && i > worst_one_idx)) {
        worst_one = s;
        worst_one_idx = i;
        have_one = true;
      }
    } else {
      if (!have_zero || s > best_zero || (s == best_zero && i < best_zero_idx)) {
        best_zero = s;
        best_zero_idx = i;
        have_zero = true;
      }
    }
  }
  if (!have_zero) return true;  // k == n
  if (worst_one != best_zero) return worst_one > best_zero;
  return worst_one_idx < best_zero_idx;
}

double IncrementalMn::overlap_fraction(const Signal& truth, ThreadPool& pool) const {
  const std::uint32_t k = truth.k();
  if (k == 0) return 1.0;
  const Signal estimate = decode(k, pool);
  return static_cast<double>(estimate.overlap(truth)) / static_cast<double>(k);
}

bool IncrementalMn::is_consistent(const Signal& candidate) const {
  POOLED_REQUIRE(candidate.n() == n(), "candidate length mismatch");
  std::uint64_t sum = 0;
  for (std::uint32_t entry : candidate.support()) sum += records_[entry].fp;
  return sum == target_;
}

QueryFingerprint IncrementalMn::fingerprint() const {
  QueryFingerprint print;
  print.entries.resize(n());
  for (std::size_t i = 0; i < print.entries.size(); ++i) print.entries[i] = records_[i].fp;
  print.target = target_;
  print.queries = m_;
  return print;
}

}  // namespace pooled

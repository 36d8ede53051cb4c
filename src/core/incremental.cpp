#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "kernels/decode_arena.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// A delta block's sums and counts stay below this (DeltaRecord).
constexpr std::uint64_t kDeltaLimit = std::uint64_t{1} << 32;

/// Slot::state of a round whose fold threw.
constexpr std::uint32_t kFailed = ~std::uint32_t{0};

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
    : design_(std::move(design)),
      decoder_(options),
      fold_task_([this](std::size_t round) {
        fold_ahead(static_cast<std::uint32_t>(round));
      }) {
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

IncrementalMn::~IncrementalMn() {
  // Owners call finish_rounds() themselves, where a fold task's exception
  // reaches them; here the ring is still open only while another
  // exception unwinds its owner, and that one is the failure to report.
  try {
    finish_rounds();
  } catch (...) {
  }
  if (ring_.arena != nullptr) ring_.arena->release_deltas();
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

unsigned IncrementalMn::lane_blocks(const ThreadPool& pool) const {
  return DecodeArena::delta_blocks(std::min(pool.batch_width(), kRoundsAhead), n());
}

void IncrementalMn::hold_blocks(unsigned width) {
  DecodeArena& arena = DecodeArena::local();
  // Blocks start on cache lines: 4 DeltaRecords per 64 bytes.
  ring_.stride = (std::size_t{n()} + 3) & ~std::size_t{3};
  ring_.blocks = arena.hold_deltas(width * ring_.stride);
  ring_.arena = &arena;
  ring_.width = width;
}

void IncrementalMn::fold_round(const std::vector<std::uint32_t>& y,
                               std::uint32_t batch, std::uint32_t limit,
                               ThreadPool& pool) {
  POOLED_REQUIRE(batch >= 1 && m_ < limit && limit <= y.size(),
                 "a round needs queries left below the limit");
  if (!ring_.planned) plan_rounds(y, batch, limit, pool);
  if (ring_.pool != nullptr) {
    POOLED_REQUIRE(&y == ring_.y && batch == ring_.batch && limit == ring_.limit,
                   "rounds folding ahead are runs of one size up to one limit");
    take_round();
    return;
  }
  const auto end = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::uint64_t{m_} + batch, limit));
  while (m_ < end) add_query(y[m_]);
}

void IncrementalMn::plan_rounds(const std::vector<std::uint32_t>& y,
                                std::uint32_t batch, std::uint32_t limit,
                                ThreadPool& pool) {
  ring_.planned = true;
  const unsigned width = lane_blocks(pool);
  const std::uint64_t rounds = (std::uint64_t{limit} - m_ + batch - 1) / batch;
  // A round pays only when its expected draws reach the n entries of the
  // block it zeroes and the caller adds; below that the serial fold wins
  // (L = 1 at n = 10^4: 45 ms serial, 58 ms folded ahead). One round
  // holding every query left has nothing to fold ahead of.
  if (width < 2 || rounds < 2 ||
      static_cast<double>(batch) * design_->expected_pool_size() < n()) {
    return;
  }
  hold_blocks(width);
  ring_.y = &y;
  ring_.first = m_;
  ring_.batch = batch;
  ring_.limit = limit;
  ring_.rounds = static_cast<std::uint32_t>(rounds);
  ring_.pool = &pool;
  pool.start(ring_.tasks, std::min<std::uint64_t>(rounds, width), fold_task_);
}

void IncrementalMn::fold_ahead(std::uint32_t round) {
  Slot& slot = ring_.slots[round % ring_.width];
  try {
    const std::uint32_t count = n();
    const CountMode mode = decoder_.count_mode();
    const std::vector<std::uint32_t>& y = *ring_.y;
    DeltaRecord* block = ring_.blocks + (round % ring_.width) * ring_.stride;
    std::fill_n(block, count, DeltaRecord{});
    // The marks live in the executing lane's arena; epochs restart at 1
    // with every round, so they start zeroed.
    DecodeArena& lane = DecodeArena::local();
    std::uint32_t* marks = nullptr;
    if (mode == CountMode::Distinct) {
      marks = lane.marks(count);
      std::fill_n(marks, count, 0u);
    }
    std::vector<std::uint32_t>& members = lane.members();
    const std::uint32_t begin = ring_.first + round * ring_.batch;
    const auto end = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{begin} + ring_.batch, ring_.limit));
    std::uint64_t sum_bound = 0;
    std::uint64_t count_bound = 0;
    std::uint64_t target = 0;
    bool overflow = false;
    for (std::uint32_t q = begin; q < end; ++q) {
      // A stopped ring leaves the round unpublished.
      if (ring_.stop.load(std::memory_order_relaxed)) return;
      design_->query_members(q, members);
      // Bounds on any one entry's sum and count over the round: a round
      // that could reach 2^32 is left to the serial fold.
      const std::uint64_t draws = mode == CountMode::Distinct ? 1 : members.size();
      count_bound += draws;
      sum_bound += y[q] * draws;
      if (count_bound >= kDeltaLimit || sum_bound >= kDeltaLimit) {
        overflow = true;
        break;
      }
      const std::uint64_t weight = fingerprint_weight(q);
      target += weight * y[q];
      accumulate_query(mode, members.data(), members.size(), q - begin + 1, y[q],
                       weight, DeltaLayout{block, marks});
    }
    slot.target = target;
    slot.overflow = overflow;
    slot.state.store(round + 1, std::memory_order_release);
  } catch (...) {
    // The taking thread must not wait for a round that never comes.
    slot.state.store(kFailed, std::memory_order_release);
    slot.state.notify_one();
    throw;
  }
  slot.state.notify_one();
}

void IncrementalMn::take_round() {
  const std::uint32_t round = ring_.taken;
  const Slot& slot = ring_.slots[round % ring_.width];
  const std::uint32_t end = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::uint64_t{m_} + ring_.batch, ring_.limit));
  // No lane has the round: fold it here, straight into the records.
  bool serial = ring_.pool->claim(ring_.tasks, round);
  if (!serial) {
    std::uint32_t seen = slot.state.load(std::memory_order_acquire);
    while (seen != round + 1) {
      if (seen == kFailed) {
        finish_rounds();  // rethrows what the fold threw
        POOLED_REQUIRE(false, "a round folding ahead failed");
      }
      slot.state.wait(seen, std::memory_order_acquire);
      seen = slot.state.load(std::memory_order_acquire);
    }
    serial = slot.overflow;
  }
  if (serial) {
    while (m_ < end) add_query((*ring_.y)[m_]);
  } else {
    // The pass rewrites the whole pair, so serial folds before it are in
    // the pair too.
    const DeltaRecord* block = ring_.blocks + (round % ring_.width) * ring_.stride;
    if (decoder_.count_mode() == CountMode::Distinct) {
      add_block(block, n(), records_, stats_->psi.data(), stats_->delta_star.data());
    } else {
      add_block(block, n(), records_, stats_->psi_multi.data(), stats_->delta.data());
    }
    target_ += slot.target;
    m_ = end;
    stats_stale_ = false;
  }
  // The block is free again: the round W later may fold into it.
  ++ring_.taken;
  ring_.pool->extend(ring_.tasks, std::min(ring_.rounds, ring_.taken + ring_.width));
}

void IncrementalMn::finish_rounds() {
  if (ring_.pool == nullptr) return;
  ThreadPool& pool = *std::exchange(ring_.pool, nullptr);
  ring_.stop.store(true, std::memory_order_relaxed);
  pool.finish(ring_.tasks);
}

QueryFingerprint IncrementalMn::complete_fingerprint(const std::vector<std::uint32_t>& y,
                                                     ThreadPool& pool) {
  finish_rounds();
  const auto m = static_cast<std::uint32_t>(y.size());
  POOLED_REQUIRE(m >= m_, "the results cover the folded queries");
  const std::uint32_t count = n();
  QueryFingerprint print = fingerprint();
  print.queries = m;
  // Rounds folded ahead and never taken add their blocks; the queries
  // left to fold are [m_, m) less those rounds, in at most one gap more
  // than the ring holds rounds.
  std::array<std::pair<std::uint32_t, std::uint32_t>, kRoundsAhead + 1> gaps{};
  std::size_t gap_count = 0;
  std::uint32_t from = m_;
  if (ring_.width != 0) {
    for (std::uint32_t round = ring_.taken;
         round < ring_.rounds && round < ring_.taken + ring_.width; ++round) {
      const Slot& slot = ring_.slots[round % ring_.width];
      if (slot.state.load(std::memory_order_relaxed) != round + 1 || slot.overflow) {
        continue;
      }
      const DeltaRecord* block = ring_.blocks + (round % ring_.width) * ring_.stride;
      for (std::uint32_t i = 0; i < count; ++i) print.entries[i] += block[i].fp;
      print.target += slot.target;
      const std::uint32_t begin = ring_.first + round * ring_.batch;
      if (from < begin) gaps[gap_count++] = {from, begin};
      from = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(std::uint64_t{begin} + ring_.batch, ring_.limit));
    }
  }
  if (from < m) gaps[gap_count++] = {from, m};
  std::uint64_t left = 0;
  for (std::size_t g = 0; g < gap_count; ++g) left += gaps[g].second - gaps[g].first;
  // Folds the gaps' queries at flattened positions [lo, hi) into `fp`
  // (indexed by entry) and returns their Σ r_q·y_q.
  const auto fold_gaps = [&](std::uint64_t lo, std::uint64_t hi,
                             std::vector<std::uint32_t>& members, auto&& fp) {
    std::uint64_t target = 0;
    std::uint64_t base = 0;
    for (std::size_t g = 0; g < gap_count; ++g) {
      const std::uint64_t length = gaps[g].second - gaps[g].first;
      for (std::uint64_t p = std::max(lo, base); p < std::min(hi, base + length); ++p) {
        const auto q = static_cast<std::uint32_t>(gaps[g].first + (p - base));
        design_->query_members(q, members);
        const std::uint64_t weight = fingerprint_weight(q);
        for (std::uint32_t entry : members) fp(entry) += weight;
        target += weight * y[q];
      }
      base += length;
    }
    return target;
  };
  // Lanes pay as rounds do: when each one's draws reach the n entries of
  // the block it zeroes and the caller adds.
  const unsigned lanes = ring_.width != 0 ? ring_.width : lane_blocks(pool);
  if (lanes < 2 || static_cast<double>(left) * design_->expected_pool_size() <
                       static_cast<double>(lanes) * count) {
    std::uint64_t* entries = print.entries.data();
    print.target += fold_gaps(0, left, scratch_,
                              [entries](std::uint32_t entry) -> std::uint64_t& {
                                return entries[entry];
                              });
    return print;
  }
  if (ring_.width == 0) hold_blocks(lanes);
  std::array<std::uint64_t, kRoundsAhead> targets{};
  pool.run_tasks(lanes, [&](std::size_t lane) {
    DeltaRecord* block = ring_.blocks + lane * ring_.stride;
    std::fill_n(block, count, DeltaRecord{});
    targets[lane] = fold_gaps(left * lane / lanes, left * (lane + 1) / lanes,
                              DecodeArena::local().members(),
                              [block](std::uint32_t entry) -> std::uint64_t& {
                                return block[entry].fp;
                              });
  });
  for (unsigned lane = 0; lane < lanes; ++lane) {
    const DeltaRecord* block = ring_.blocks + lane * ring_.stride;
    for (std::uint32_t i = 0; i < count; ++i) print.entries[i] += block[i].fp;
    print.target += targets[lane];
  }
  return print;
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

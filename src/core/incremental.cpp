#include "core/incremental.hpp"

#include "kernels/decode_arena.hpp"
#include "support/assert.hpp"

namespace pooled {

IncrementalMn::IncrementalMn(std::shared_ptr<const PoolingDesign> design,
                             MnOptions options)
    : design_(std::move(design)), decoder_(options) {
  POOLED_REQUIRE(design_ != nullptr, "incremental MN needs a design");
  records_.assign(design_->num_entries(), EntryRecord{});
}

void IncrementalMn::fold(std::uint32_t y) {
  // Epoch marking (a record's mark = last query that drew the entry)
  // detects first occurrences without sorting the Γ draws; the records
  // start zeroed, so epochs are query + 1 as in a streamed pass. The
  // weight is the one a one-shot pass folds, so the fingerprints agree.
  const std::uint64_t weight = fingerprint_weight(m_);
  accumulate_query(decoder_.count_mode(), scratch_.data(), scratch_.size(),
                   m_ + 1, y, weight, records_.data());
  target_ += weight * y;
  ++m_;
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

const EntryStats& IncrementalMn::stats_into_arena() const {
  EntryStats& stats = DecodeArena::local().stats();
  const CountMode mode = decoder_.count_mode();
  stats.resize(records_.size(), mode);
  fold_records(records_.data(), records_.size(), mode, /*add=*/false, stats);
  return stats;
}

Signal IncrementalMn::decode(std::uint32_t k, ThreadPool& pool) const {
  return decoder_.estimate_from_stats(stats_into_arena(), k, pool);
}

bool IncrementalMn::matches_truth(const Signal& truth, ThreadPool& pool) const {
  POOLED_REQUIRE(truth.n() == n(), "design/signal length mismatch");
  // Exact recovery iff the worst-ranked one-entry still beats the
  // best-ranked zero-entry under the (score desc, index asc) total order.
  const std::uint32_t count = n();
  if (truth.k() == 0) return true;
  double* scores = DecodeArena::local().scores(count);
  decoder_.scores_into(stats_into_arena(), truth.k(), pool, scores);
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
  print.entries.resize(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) print.entries[i] = records_[i].fp;
  print.target = target_;
  print.queries = m_;
  return print;
}

}  // namespace pooled

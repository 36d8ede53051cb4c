#include "core/incremental.hpp"

#include <algorithm>

#include "core/instance.hpp"
#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "support/assert.hpp"

namespace pooled {

IncrementalMn::IncrementalMn(std::shared_ptr<const PoolingDesign> design, Signal truth,
                             MnScore score)
    : design_(std::move(design)), truth_(std::move(truth)), score_(score) {
  POOLED_REQUIRE(design_ != nullptr, "incremental MN needs a design");
  POOLED_REQUIRE(design_->num_entries() == truth_.n(),
                 "design/signal length mismatch");
  records_.assign(truth_.n(), EntryRecord{});
}

std::uint32_t IncrementalMn::add_query() {
  const auto query = static_cast<std::uint32_t>(y_.size());
  design_->query_members(query, scratch_);
  std::uint32_t result = 0;
  for (std::uint32_t entry : scratch_) result += truth_.value(entry);
  // Epoch marking (a record's mark = last query that drew the entry)
  // detects first occurrences without sorting the Γ draws; the records
  // start zeroed, so epochs are query + 1 as in a streamed pass.
  accumulate_query(scratch_.data(), scratch_.size(), query + 1, result,
                   records_.data());
  y_.push_back(result);
  return result;
}

const double* IncrementalMn::scores_into_arena() const {
  // One hoisted dispatch per re-rank instead of a switch per entry; the
  // Fig. 2 loop calls this after every appended query.
  const std::uint32_t n = truth_.n();
  const double half_k = static_cast<double>(truth_.k()) / 2.0;
  DecodeArena& arena = DecodeArena::local();
  EntryStats& stats = arena.stats();
  stats.resize(n);
  fold_records(records_.data(), n, /*add=*/false, stats);
  double* scores = arena.scores(n);
  const KernelSet& kernels = active_kernels();
  switch (score_) {
    case MnScore::CentralizedPsi:
      kernels.score_centered(stats.psi.data(), stats.delta_star.data(), 0, n,
                             half_k, scores);
      break;
    case MnScore::RawPsi:
      kernels.score_raw(stats.psi.data(), 0, n, scores);
      break;
    case MnScore::NormalizedPsi:
      kernels.score_normalized(stats.psi.data(), stats.delta_star.data(), 0, n,
                               scores);
      break;
    case MnScore::MultiEdgePsi:
      kernels.score_multiedge(stats.psi_multi.data(), stats.delta.data(), 0, n,
                              half_k, scores);
      break;
  }
  return scores;
}

bool IncrementalMn::matches_truth() const {
  // Exact recovery iff the worst-ranked one-entry still beats the
  // best-ranked zero-entry under the (score desc, index asc) total order.
  const std::uint32_t n = truth_.n();
  if (truth_.k() == 0) return true;
  const double* scores = scores_into_arena();
  bool have_one = false, have_zero = false;
  double worst_one = 0.0, best_zero = 0.0;
  std::uint32_t worst_one_idx = 0, best_zero_idx = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double s = scores[i];
    if (truth_.is_one(i)) {
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

double IncrementalMn::overlap_fraction() const {
  const std::uint32_t k = truth_.k();
  if (k == 0) return 1.0;
  const Signal estimate = decode();
  return static_cast<double>(estimate.overlap(truth_)) / static_cast<double>(k);
}

Signal IncrementalMn::decode() const {
  const std::uint32_t n = truth_.n();
  const std::uint32_t k = truth_.k();
  const double* scores = scores_into_arena();
  // Arena-backed partial ranking: the Fig. 2 loop re-ranks after every
  // appended query, so this path must not allocate per call.
  std::vector<std::uint32_t> support(k);
  select_top_k_into(active_kernels(), scores, n, k,
                    DecodeArena::local().topk_values(n), support.data());
  return Signal(n, std::move(support));
}

std::unique_ptr<StreamedInstance> IncrementalMn::to_instance() const {
  return std::make_unique<StreamedInstance>(design_, m(), y_);
}

}  // namespace pooled

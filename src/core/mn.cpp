#include "core/mn.hpp"

#include <algorithm>
#include <numeric>

#include "kernels/decode_arena.hpp"
#include "kernels/kernel_set.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_sort.hpp"
#include "parallel/thread_pool.hpp"
#include "support/assert.hpp"

namespace pooled {

namespace {

/// SIMD score kernels do a few cycles per element; anything below this
/// grain is dominated by chunk dispatch.
constexpr std::size_t kScoreGrain = 8192;

/// Shared top-k body over a raw score array. The partial-ranking path
/// is select_top_k_into's one scan; the full-sort path is Algorithm 1 as
/// written, ranking all n coordinates.
std::vector<std::uint32_t> top_k_support(const double* scores, std::size_t n,
                                         std::uint32_t k, bool full_sort,
                                         ThreadPool& pool) {
  POOLED_REQUIRE(k <= n, "cannot select more entries than exist");
  std::vector<std::uint32_t> support(k);
  if (full_sort) {
    std::uint32_t* order = DecodeArena::local().order(n);
    std::iota(order, order + n, 0u);
    const auto better = [&](std::uint32_t a, std::uint32_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return a < b;  // deterministic tie-break
    };
    parallel_sort(pool, order, order + n, better);
    std::copy_n(order, k, support.begin());
    std::sort(support.begin(), support.end());
  } else {
    select_top_k_into(scores, n, k, support.data());
  }
  return support;
}

}  // namespace

MnDecoder::MnDecoder(MnOptions options) : options_(options) {}

CountMode MnDecoder::count_mode() const {
  return options_.score == MnScore::MultiEdgePsi ? CountMode::EveryDraw
                                                 : CountMode::Distinct;
}

void MnDecoder::scores_into(const EntryStats& stats, std::uint32_t k,
                            ThreadPool& pool, double* out) const {
  // Hoisted out of the per-entry loops: one switch per call, then the
  // chunked kernel runs branch-free over its range.
  const std::size_t n = stats.size(count_mode());
  POOLED_REQUIRE(n > 0 || stats.psi.size() + stats.psi_multi.size() == 0,
                 "entry statistics hold the pair of another score");
  const double half_k = static_cast<double>(k) / 2.0;
  const KernelSet& kernels = active_kernels();
  switch (options_.score) {
    case MnScore::CentralizedPsi:
      parallel_for_chunked(pool, 0, n, kScoreGrain,
                           [&](std::size_t lo, std::size_t hi) {
                             kernels.score_centered(stats.psi.data(),
                                                    stats.delta_star.data(), lo,
                                                    hi, half_k, out);
                           });
      break;
    case MnScore::RawPsi:
      parallel_for_chunked(pool, 0, n, kScoreGrain,
                           [&](std::size_t lo, std::size_t hi) {
                             kernels.score_raw(stats.psi.data(), lo, hi, out);
                           });
      break;
    case MnScore::NormalizedPsi:
      parallel_for_chunked(pool, 0, n, kScoreGrain,
                           [&](std::size_t lo, std::size_t hi) {
                             kernels.score_normalized(stats.psi.data(),
                                                      stats.delta_star.data(),
                                                      lo, hi, out);
                           });
      break;
    case MnScore::MultiEdgePsi:
      parallel_for_chunked(pool, 0, n, kScoreGrain,
                           [&](std::size_t lo, std::size_t hi) {
                             kernels.score_multiedge(stats.psi_multi.data(),
                                                     stats.delta.data(), lo, hi,
                                                     half_k, out);
                           });
      break;
  }
}

std::vector<double> MnDecoder::scores_from_stats(const EntryStats& stats,
                                                 std::uint32_t k,
                                                 ThreadPool& pool) const {
  std::vector<double> scores(stats.size(count_mode()));
  scores_into(stats, k, pool, scores.data());
  return scores;
}

Signal MnDecoder::estimate_from_stats(const EntryStats& stats, std::uint32_t k,
                                      ThreadPool& pool) const {
  const std::size_t n = stats.size(count_mode());
  POOLED_REQUIRE(k <= n, "weight k exceeds signal length");
  double* scores = DecodeArena::local().scores(n);
  scores_into(stats, k, pool, scores);
  auto support = top_k_support(scores, n, k, options_.full_sort, pool);
  return Signal(static_cast<std::uint32_t>(n), std::move(support));
}

std::vector<std::uint32_t> select_top_k(std::vector<double>& scores, std::uint32_t k,
                                        bool full_sort, ThreadPool& pool) {
  return top_k_support(scores.data(), scores.size(), k, full_sort, pool);
}

MnResult MnDecoder::decode_scored(const StreamedInstance& instance, std::uint32_t k,
                                  ThreadPool& pool) const {
  POOLED_REQUIRE(k <= instance.n(), "weight k exceeds signal length");
  const EntryStats stats = instance.entry_stats(pool, count_mode());
  std::vector<double> scores = scores_from_stats(stats, k, pool);
  auto support = top_k_support(scores.data(), scores.size(), k,
                               options_.full_sort, pool);
  return MnResult{Signal(instance.n(), std::move(support)), std::move(scores)};
}

DecodeOutcome MnDecoder::decode(const StreamedInstance& instance,
                                const DecodeContext& context) const {
  ThreadPool& pool = context.thread_pool();
  // Zero-alloc steady state: statistics and scores live in the decoding
  // thread's arena; only the returned support allocates.
  EntryStats& stats = DecodeArena::local().stats();
  instance.entry_stats_into(pool, stats, count_mode());
  // One score per entry: the matrix-vector pass of the "Parallelized
  // Reconstruction" remark.
  return one_shot_outcome(estimate_from_stats(stats, context.k, pool), instance,
                          instance.n());
}

std::string MnDecoder::name() const {
  switch (options_.score) {
    case MnScore::CentralizedPsi:
      return "mn";
    case MnScore::RawPsi:
      return "mn-raw";
    case MnScore::NormalizedPsi:
      return "mn-normalized";
    case MnScore::MultiEdgePsi:
      return "mn-multiedge";
  }
  return "mn-?";
}

}  // namespace pooled
